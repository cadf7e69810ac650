(* Differential tests for the kernel: the incremental backtracking
   enumerator, the compiled row-based evaluator, and the fast limit
   checks must be indistinguishable from their reference counterparts
   (the reference tier lives in test/support/eval_ref.ml).

   - enumerator: [Enumerate.runs] emits the same run SET as the
     materialized [Eval_ref.runs_ref] (different order is allowed and
     expected), [count_runs] counts it, and the abstract fast path
     ([fold_abstracts], relation rows + lazy poset) yields runs equal to
     the [to_abstract] projections — [Run.Abstract.equal] forces the
     row-reconstructed poset against the concrete one.
   - evaluator: on ≥ 500 random guarded predicates, [find_matches]
     (compiled, lex plan) is byte-for-byte the reference interpreter's
     match list, and [holds] (compiled, reordered plan) agrees as a
     boolean — over row-backed abstract runs of every standard size.
   - large runs: above 62 messages every relation section takes more
     than one word; the arms must still agree, at the word boundaries
     (61-64 and 123-126 messages) too.
   - model checker: the B12-tier universe counts are pinned; these are
     the numbers the paper's tables and BENCH_core.json carry. *)

open Mo_core
open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- enumerator vs reference ------------------------------------- *)

let run_key r = Format.asprintf "%a" Run.pp r

let standard_sizes = Modelcheck.standard_sizes

let test_run_sets () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          let fast = Enumerate.runs ~nprocs ~msgs
          and slow = Eval_ref.runs_ref ~nprocs ~msgs in
          check_int "count_runs" (List.length slow)
            (Enumerate.count_runs ~nprocs ~msgs);
          let keys l = List.sort compare (List.map run_key l) in
          Alcotest.(check (list string))
            "same run set" (keys slow) (keys fast))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    standard_sizes

let test_abstract_fast_path () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          (* same enumeration order on both sides, so compare pairwise;
             equality forces the lazy poset rebuilt from the rows against
             the concrete run's own closure *)
          let concrete =
            List.map Run.to_abstract (Enumerate.runs ~nprocs ~msgs)
          in
          let fast =
            List.rev
              (Enumerate.fold_abstracts ~nprocs ~msgs ~init:[]
                 ~f:(fun acc r -> r :: acc))
          in
          check_int "same cardinality" (List.length concrete)
            (List.length fast);
          List.iter2
            (fun a b ->
              check_bool "abstract runs equal" true (Run.Abstract.equal a b);
              (* and the limit verdicts agree between row-built and
                 poset-built runs *)
              check_bool "is_causal agrees" (Limits.is_causal a)
                (Limits.is_causal b);
              check_bool "is_sync agrees" (Limits.is_sync a)
                (Limits.is_sync b))
            concrete fast)
        (Enumerate.configs ~nprocs ~nmsgs ()))
    (* (3,3) adds minutes of pairwise poset comparisons for no new code
       path; the smaller sizes already cross every representation *)
    [ (2, 2); (3, 2); (2, 3) ]

(* ---- compiled evaluator vs reference interpreter ------------------ *)

(* one shared pool of row-backed abstract runs covering every standard
   size; sampled by stride so each case sees a spread, not a prefix *)
let run_pool =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (nprocs, nmsgs) ->
            Enumerate.abstract_runs ~nprocs ~nmsgs ())
          standard_sizes))

let sample_runs rng =
  let pool = Lazy.force run_pool in
  let stride = 17 + Prop.int_range 0 61 rng in
  let start = Prop.int_range 0 (Array.length pool - 1) rng in
  List.init 40 (fun i -> pool.((start + (i * stride)) mod Array.length pool))

let gen_pred rng =
  Prop.frequency
    [
      (* small arities actually place all their variables in 2-3 message
         runs; larger ones exercise the early-exit and pruning paths *)
      ( 3,
        fun rng ->
          Mo_workload.Random_pred.guarded_predicate ~max_vars:3
            ~seed:(Prop.int_range 0 1_000_000 rng)
            () );
      ( 2,
        fun rng ->
          Mo_workload.Random_pred.guarded_predicate
            ~seed:(Prop.int_range 0 1_000_000 rng)
            () );
      ( 1,
        fun rng ->
          Mo_workload.Random_pred.cyclic_predicate
            ~nvars:(Prop.int_range 2 5 rng)
            ~seed:(Prop.int_range 0 1_000_000 rng) );
    ]
    rng

let agree_on_pred (p, runs) =
  let c = Eval.compile p in
  List.for_all
    (fun r ->
      (* byte-for-byte: same matches, in the same order *)
      Eval_ref.find_matches_ref p r = Eval.find_matches_c c r
      && Eval_ref.find_match_ref p r = Eval.find_match_c c r
      (* the reordered boolean plan agrees too, as does non-distinct
         matching *)
      && Eval_ref.holds_ref p r = Eval.holds_c c r
      && Eval_ref.holds_ref ~distinct:false p r
         = Eval.holds_c ~distinct:false c r)
    runs

let test_eval_differential =
  Prop.test ~count:500 ~seed:42 ~name:"compiled = reference"
    (Prop.pair gen_pred sample_runs)
    ~pp:(fun (p, _) -> Forbidden.to_string p)
    agree_on_pred

(* ---- runs wider than one word ------------------------------------ *)

let big_n = 70

(* a pipelined (totally ordered) big run and one with a single overtaken
   pair; both two words per relation section *)
let big_chain =
  lazy
    (let edges =
       List.concat
         (List.init (big_n - 1) (fun x ->
              [ (Event.deliver x, Event.send (x + 1)) ]))
     in
     Run.Abstract.create_exn ~nmsgs:big_n edges)

let big_overtake =
  lazy
    (Run.Abstract.create_exn ~nmsgs:big_n
       [
         (Event.send 0, Event.send 1); (Event.deliver 1, Event.deliver 0);
       ])

let test_big_runs () =
  List.iter
    (fun r ->
      let r = Lazy.force r in
      check_int "two words per relation section" 2
        (Array.length Run.Abstract.((shape r).live));
      check_bool "is_causal = check_causal" (Limits.is_causal r)
        (Result.is_ok (Limits.check_causal r));
      check_bool "is_sync = check_sync" (Limits.is_sync r)
        (Result.is_ok (Limits.check_sync r));
      List.iter
        (fun (e : Catalog.entry) ->
          check_bool e.Catalog.name
            (Eval_ref.holds_ref e.Catalog.pred r)
            (Eval.holds e.Catalog.pred r))
        [ Catalog.causal_b2; Catalog.sync_crown 2; Catalog.fifo ])
    [ big_chain; big_overtake ];
  check_bool "chain is causal" true (Limits.is_causal (Lazy.force big_chain));
  check_bool "overtake is not causal" false
    (Limits.is_causal (Lazy.force big_overtake))

(* ---- word boundaries --------------------------------------------- *)

(* Runs of 61-64 and 123-126 messages straddle the one- and two-word
   edges of the relation rows (62 messages per word). Every consumer of
   the rows must agree with its reference there: the compiled matcher
   with the interpreter, lattice membership and the limit checks with
   their witness-producing twins, and the exact monitor with the offline
   verdict. Colors are seeded onto the runs so the color guards bite. *)

let boundary_run rng =
  let nmsgs =
    Prop.oneof [ Prop.int_range 61 64 rng; Prop.int_range 123 126 rng ] rng
  in
  let nprocs = Prop.int_range 2 4 rng
  and seed = Prop.int_range 0 1_000_000 rng in
  let r =
    match Prop.int_range 0 2 rng with
    | 0 -> Mo_workload.Random_run.run ~nprocs ~nmsgs ~seed ()
    | 1 -> Mo_workload.Random_run.causal_run ~nprocs ~nmsgs ~seed ()
    | _ -> Mo_workload.Random_run.serialized_run ~nprocs ~nmsgs ~seed ()
  in
  let msgs = Array.init nmsgs (fun m -> (Run.msg_src r m, Run.msg_dst r m)) in
  let colors =
    Array.init nmsgs (fun _ ->
        if Random.State.bool rng then Some (Random.State.int rng 3) else None)
  in
  let seqs = Array.init nprocs (Run.sequence r) in
  match Run.of_sequences ~nprocs ~msgs ~colors seqs with
  | Ok r -> r
  | Error e -> failwith e

(* the catalog predicates of at most three variables: the interpreter
   is exponential in the arity, and wider ones only add stages to the
   same search *)
let boundary_preds =
  List.filter
    (fun (e : Catalog.entry) -> Forbidden.nvars e.Catalog.pred <= 3)
    Catalog.all

let boundary_agree run =
  let a = Run.to_abstract run in
  List.for_all
    (fun (e : Catalog.entry) ->
      let p = e.Catalog.pred in
      let c = Eval.compile p in
      Eval_ref.find_matches_ref p a = Eval.find_matches_c c a
      && Option.is_some (Pmon.feed_run c run) = Eval.holds_c c a)
    boundary_preds
  && List.for_all
       (fun m -> Lattice.is_member m a = Result.is_ok (Lattice.check m a))
       (Lattice.points ())
  && Limits.is_causal a = Result.is_ok (Limits.check_causal a)
  && Limits.is_sync a = Result.is_ok (Limits.check_sync a)

let test_word_boundaries =
  Prop.test ~count:30 ~seed:62 ~name:"word boundaries" boundary_run
    ~pp:(fun r -> Printf.sprintf "%d msgs" (Run.nmsgs r))
    boundary_agree

(* ---- pinned model-checker counts (B12 tier) ----------------------- *)

let test_verify_counts () =
  let sizes = standard_sizes @ [ (4, 2); (4, 3); (3, 4) ] in
  let v = Modelcheck.verify ~sizes () in
  check_int "runs" 125_768 v.Modelcheck.counts.Modelcheck.runs;
  check_int "causal" 63_364 v.Modelcheck.counts.Modelcheck.causal;
  check_int "sync" 41_432 v.Modelcheck.counts.Modelcheck.sync;
  check_bool "all lemmas hold" true (Modelcheck.ok v)

let () =
  Alcotest.run "eval_fast"
    [
      ( "enumerator",
        [
          Alcotest.test_case "run set = reference" `Slow test_run_sets;
          Alcotest.test_case "abstract fast path" `Slow
            test_abstract_fast_path;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "500 random guarded predicates" `Slow
            test_eval_differential;
          Alcotest.test_case "multi-word rows beyond 62 msgs" `Quick
            test_big_runs;
          Alcotest.test_case "word boundaries: rows = references" `Slow
            test_word_boundaries;
        ] );
      ( "modelcheck",
        [ Alcotest.test_case "B12-tier counts pinned" `Slow test_verify_counts ] );
    ]
