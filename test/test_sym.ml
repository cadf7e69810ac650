(* The symmetry-quotiented enumeration (DESIGN.md §3j) — the walk behind
   every Modelcheck verdict — verified differentially against the
   concrete kernel.

   - configs_quotient / configs_sym: multiplicity-expanded config and
     run counts equal the unquotiented enumeration's on every standard
     size, and every representative is a member of the orbit it names
     (configs_quotient is the process-renaming-only quotient of the
     Config_ref oracle, test/support);
   - configs_sym = Config_ref.configs_sym as whole lists (representatives,
     multiplicities and order) at every vast size and at (5,5) and (6,3),
     with and without self-messages; Σ mult = #endpoints^nmsgs; the
     representative count of every vast size is pinned;
   - count_runs_sym = count_runs on every configuration;
   - orbit-expanded per-predicate violation counts and limit-set counts
     from fold_abstracts_sym (with and without decided-subtree pruning)
     equal the concrete enumeration's, for every Catalog predicate,
     exhaustively over the standard tier;
   - Modelcheck verify / count / placement produce byte-identical
     verdicts to the concrete oracle (Modelcheck_ref, test/support) on
     catalog predicates and on 200 + 20 random plain/guarded predicates,
     and byte-identical verdicts at jobs 1/2/4/7;
   - `mopc universe --deep` prints the pinned output with and without
     --sym;
   - MO_SYM_DEEP=1 (nightly) extends the verify differential to the
     940,304-run deep tier and pins the 77,830,564-run vast tier's
     orbit-expanded cardinalities. *)

open Mo_core
open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let deep = Sys.getenv_opt "MO_SYM_DEEP" <> None

let sizes_all = (4, 2) :: Modelcheck.standard_sizes

(* ---- config quotients --------------------------------------------- *)

let test_configs_quotient () =
  List.iter
    (fun (nprocs, nmsgs) ->
      let label fmt = Printf.sprintf fmt nprocs nmsgs in
      let cfgs = Enumerate.configs ~nprocs ~nmsgs () in
      let runs_of msgs = Enumerate.count_runs ~nprocs ~msgs in
      let total_runs = List.fold_left (fun a c -> a + runs_of c) 0 cfgs in
      let expand q = List.fold_left (fun a (_, m) -> a + m) 0 q in
      let expand_runs q =
        List.fold_left (fun a (c, m) -> a + (m * runs_of c)) 0 q
      in
      let q = Config_ref.configs_quotient ~nprocs ~nmsgs () in
      check_int
        (label "(%d,%d) quotient multiplicities expand to the config count")
        (List.length cfgs) (expand q);
      check_int
        (label "(%d,%d) quotient orbit-expanded run count")
        total_runs (expand_runs q);
      List.iter
        (fun (rep, _) ->
          check_bool (label "(%d,%d) quotient rep is a real config") true
            (List.mem rep cfgs))
        q;
      let s = Enumerate.configs_sym ~nprocs ~nmsgs () in
      check_int
        (label "(%d,%d) sym multiplicities expand to the config count")
        (List.length cfgs) (expand s);
      check_int
        (label "(%d,%d) sym orbit-expanded run count")
        total_runs (expand_runs s);
      List.iter
        (fun (rep, _) ->
          check_bool (label "(%d,%d) sym rep is a real config") true
            (List.mem rep cfgs))
        s;
      check_bool
        (label "(%d,%d) sym quotient is at least as coarse")
        true
        (List.length s <= List.length q))
    sizes_all

(* the integer-coded canonicity test against the tuple-and-Hashtbl
   grouping it replaced: same representatives, multiplicities and order *)
let oracle_sizes = Modelcheck.vast_sizes @ [ (5, 5); (6, 3) ]

let vast_reps = [ 2; 5; 2; 10; 6; 20; 24; 69; 6; 23; 110; 196 ]

let test_configs_sym_oracle () =
  let pp_cfg (c, m) =
    String.concat " "
      (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) (Array.to_list c))
    ^ Printf.sprintf " x%d" m
  in
  List.iter
    (fun allow_self ->
      List.iter
        (fun (nprocs, nmsgs) ->
          let label fmt = Printf.sprintf fmt nprocs nmsgs allow_self in
          let s = Enumerate.configs_sym ~allow_self ~nprocs ~nmsgs () in
          Alcotest.(check (list string))
            (label "(%d,%d) self %b: configs_sym = Config_ref.configs_sym")
            (List.map pp_cfg
               (Config_ref.configs_sym ~allow_self ~nprocs ~nmsgs ()))
            (List.map pp_cfg s);
          let ne =
            if allow_self then nprocs * nprocs else nprocs * (nprocs - 1)
          in
          check_int
            (label "(%d,%d) self %b: Σ mult = #endpoints^nmsgs")
            (List.fold_left ( * ) 1 (List.init nmsgs (fun _ -> ne)))
            (List.fold_left (fun a (_, m) -> a + m) 0 s))
        oracle_sizes)
    [ false; true ];
  let reps =
    List.map
      (fun (nprocs, nmsgs) ->
        List.length (Enumerate.configs_sym ~nprocs ~nmsgs ()))
      Modelcheck.vast_sizes
  in
  Alcotest.(check (list int)) "representatives per vast size" vast_reps reps;
  check_int "representatives over the vast tier" 473
    (List.fold_left ( + ) 0 reps)

let test_count_runs_sym () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun msgs ->
          check_int "count_runs_sym equals count_runs"
            (Enumerate.count_runs ~nprocs ~msgs)
            (Enumerate.count_runs_sym ~nprocs ~msgs))
        (Enumerate.configs ~nprocs ~nmsgs ()))
    sizes_all

(* ---- orbit-expanded verdict counts, every catalog predicate -------- *)

(* violations (holds_c) and limit members counted three ways: concrete,
   sym, and sym with the decided-subtree prune driven by the predicate
   itself — all must agree exactly *)
let test_verdict_counts () =
  let plans =
    List.map
      (fun (e : Catalog.entry) -> (e.Catalog.name, Eval.compile e.Catalog.pred))
      Catalog.all
  in
  List.iter
    (fun (nprocs, nmsgs) ->
      let concrete =
        List.fold_left
          (fun acc msgs ->
            Enumerate.fold_abstracts ~nprocs ~msgs ~init:acc
              ~f:(fun (viols, causal) a ->
                ( List.map2
                    (fun v (_, plan) ->
                      if Eval.holds_c plan a then v + 1 else v)
                    viols plans,
                  (causal + if Limits.is_causal a then 1 else 0) )))
          (List.map (fun _ -> 0) plans, 0)
          (Enumerate.configs ~nprocs ~nmsgs ())
      in
      let sym_arm ~prune () =
        List.fold_left
          (fun acc (msgs, cmult) ->
            let mult = cmult * Enumerate.sym_mult ~msgs in
            let weigh (viols, causal) w a =
              ( List.map2
                  (fun v (_, plan) ->
                    if Eval.holds_c plan a then v + w else v)
                  viols plans,
                (causal + if Limits.is_causal a then w else 0) )
            in
            if prune then
              (* prune on full decision: every plan's pattern matched and
                 causality broken — then each pruned run adds mult to
                 every violation tally and nothing to the causal one *)
              let decided a =
                (not (Limits.is_causal a))
                && List.for_all (fun (_, plan) -> Eval.holds_c plan a) plans
              in
              let on_pruned (viols, causal) ~runs _a =
                (List.map (fun v -> v + (mult * runs)) viols, causal)
              in
              Enumerate.fold_abstracts_sym ~nprocs ~msgs
                ~prune:(decided, on_pruned) ~init:acc
                ~f:(fun acc a -> weigh acc mult a)
                ()
            else
              Enumerate.fold_abstracts_sym ~nprocs ~msgs ~init:acc
                ~f:(fun acc a -> weigh acc mult a)
                ())
          (List.map (fun _ -> 0) plans, 0)
          (Enumerate.configs_sym ~nprocs ~nmsgs ())
      in
      let check_arm name (viols, causal) =
        let cviols, ccausal = concrete in
        check_int
          (Printf.sprintf "(%d,%d) %s causal count" nprocs nmsgs name)
          ccausal causal;
        List.iter2
          (fun (pname, _) (c, s) ->
            check_int
              (Printf.sprintf "(%d,%d) %s violations of %s" nprocs nmsgs name
                 pname)
              c s)
          plans
          (List.combine cviols viols)
      in
      check_arm "sym" (sym_arm ~prune:false ());
      check_arm "sym+prune" (sym_arm ~prune:true ()))
    Modelcheck.standard_sizes

(* ---- Modelcheck differentials ------------------------------------- *)

(* Modelcheck walks orbit representatives; Modelcheck_ref walks every
   concrete run. Every comparison below is shipped walk vs oracle. *)

let str_verdict v = Format.asprintf "%a" Modelcheck.pp_verdict v

let str_placement p = Format.asprintf "%a" Modelcheck.pp_placement p

let test_modelcheck_equal () =
  let pool = Mo_par.Pool.create ~jobs:4 () in
  let v = Modelcheck_ref.verify ~pool ~sizes:Modelcheck.standard_sizes () in
  let vs = Modelcheck.verify ~pool ~sizes:Modelcheck.standard_sizes () in
  check_string "verify standard: byte-identical" (str_verdict v)
    (str_verdict vs);
  check_bool "verify standard: record-equal" true (v = vs);
  let c = Modelcheck_ref.count ~pool ~sizes:Modelcheck.universe_sizes () in
  let cs = Modelcheck.count ~pool ~sizes:Modelcheck.universe_sizes () in
  check_bool "count universe: equal" true (c = cs);
  check_int "count universe: runs pinned" 125_768 cs.Modelcheck.runs;
  check_int "count universe: causal pinned" 63_364 cs.Modelcheck.causal;
  check_int "count universe: sync pinned" 41_432 cs.Modelcheck.sync;
  List.iter
    (fun (e : Catalog.entry) ->
      let p =
        Modelcheck_ref.placement ~pool ~sizes:Modelcheck.standard_sizes
          e.Catalog.pred
      in
      let ps =
        Modelcheck.placement ~pool ~sizes:Modelcheck.standard_sizes
          e.Catalog.pred
      in
      check_string
        ("placement standard " ^ e.Catalog.name ^ ": byte-identical")
        (str_placement p) (str_placement ps))
    [ Catalog.fifo; Catalog.causal_b2; Catalog.sync_crown 2 ];
  (* one universe-tier placement with a wider k-synchronous sweep *)
  let p =
    Modelcheck_ref.placement ~pool ~kmax:5 ~sizes:Modelcheck.universe_sizes
      Catalog.fifo.Catalog.pred
  in
  let ps =
    Modelcheck.placement ~pool ~kmax:5 ~sizes:Modelcheck.universe_sizes
      Catalog.fifo.Catalog.pred
  in
  check_string "placement universe fifo kmax 5: byte-identical"
    (str_placement p) (str_placement ps)

let test_jobs_identity () =
  let at jobs =
    let pool = Mo_par.Pool.create ~jobs () in
    ( str_verdict
        (Modelcheck.verify ~pool ~sizes:Modelcheck.universe_sizes ()),
      str_placement
        (Modelcheck.placement ~pool ~sizes:Modelcheck.universe_sizes
           Catalog.causal_b2.Catalog.pred) )
  in
  let v1, p1 = at 1 in
  List.iter
    (fun jobs ->
      let v, p = at jobs in
      check_string
        (Printf.sprintf "verify: jobs %d byte-identical to jobs 1" jobs)
        v1 v;
      check_string
        (Printf.sprintf "placement: jobs %d byte-identical to jobs 1" jobs)
        p1 p)
    [ 2; 4; 7 ]

(* verify and count at the universe tier, shipped walk vs oracle, each
   at jobs 1 and 2 *)
let test_oracle_jobs () =
  let sizes = Modelcheck.universe_sizes in
  List.iter
    (fun jobs ->
      let pool = Mo_par.Pool.create ~jobs () in
      check_string
        (Printf.sprintf "verify universe at jobs %d: byte-identical" jobs)
        (str_verdict (Modelcheck_ref.verify ~pool ~sizes ()))
        (str_verdict (Modelcheck.verify ~pool ~sizes ()));
      check_bool
        (Printf.sprintf "count universe at jobs %d: equal" jobs)
        true
        (Modelcheck_ref.count ~pool ~sizes ()
        = Modelcheck.count ~pool ~sizes ()))
    [ 1; 2 ]

(* Random predicates, plain and guarded — the inputs mopcd's lattice op
   takes — placed by both walks: the pruned walk must never decide a
   subtree the concrete walk counts differently. *)
let random_preds ~n ~seed0 =
  List.init n (fun i ->
      let seed = seed0 + i in
      if i mod 2 = 0 then Mo_workload.Random_pred.predicate ~seed ()
      else Mo_workload.Random_pred.guarded_predicate ~seed ())

let check_placements ~pool ~sizes ~kmax preds =
  let disagreements =
    List.filter
      (fun pred ->
        str_placement (Modelcheck_ref.placement ~pool ~kmax ~sizes pred)
        <> str_placement (Modelcheck.placement ~pool ~kmax ~sizes pred))
      preds
  in
  Alcotest.(check (list string))
    (Printf.sprintf "placement kmax %d, %d random predicates: disagreements"
       kmax (List.length preds))
    []
    (List.map Forbidden.to_string disagreements)

let test_random_placement () =
  let pool = Mo_par.Pool.create ~jobs:2 () in
  check_placements ~pool ~sizes:Modelcheck.standard_sizes ~kmax:3
    (random_preds ~n:200 ~seed0:1);
  let preds = random_preds ~n:20 ~seed0:1_000 in
  List.iter
    (fun kmax ->
      check_placements ~pool ~sizes:Modelcheck.universe_sizes ~kmax preds)
    [ 3; 5 ]

(* ---- the CLI ------------------------------------------------------ *)

(* `mopc universe --deep` prints what it printed while the concrete walk
   was the default; --sym still parses and changes nothing *)
let deep_output =
  "sizes (procs,msgs): (2,2) (3,2) (2,3) (3,3) (4,2) (4,3) (3,4) (4,4)   \
   jobs: 1\n\
   universe: 940304 runs, |X_sync| = 418136, |X_co| = 572764\n\
   [ok] X_sync subset of X_co subset of X_async (strict)\n\
   [ok] Lemma 3.2: X_B1 = X_B2 = X_B3 on every run\n\
   [ok] Lemma 3.2: X_B2 is exactly the causally ordered runs\n\
   [ok] Lemma 3.3: the order-0 predicates hold in no run\n"

let mopc args =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "mopc.exe"))
  in
  let ic = Unix.open_process_args_in exe (Array.of_list ("mopc" :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "mopc %s failed" (String.concat " " args)

let test_cli_universe () =
  check_string "universe --deep" deep_output
    (mopc [ "universe"; "--deep"; "--jobs"; "1" ]);
  check_string "universe --deep --sym" deep_output
    (mopc [ "universe"; "--deep"; "--sym"; "--jobs"; "1" ])

(* ---- the nightly deep arm ----------------------------------------- *)

let test_deep () =
  if not deep then ()
  else begin
    let pool = Mo_par.Pool.create () in
    let v = Modelcheck_ref.verify ~pool ~sizes:Modelcheck.deep_sizes () in
    let vs = Modelcheck.verify ~pool ~sizes:Modelcheck.deep_sizes () in
    check_string "verify deep: byte-identical" (str_verdict v)
      (str_verdict vs);
    check_int "deep runs pinned" 940_304 vs.Modelcheck.counts.Modelcheck.runs;
    (* the vast tier is only ever walked quotiented; its orbit-expanded
       cardinalities are pinned here and in bench B18 *)
    let c = Modelcheck.count ~pool ~sizes:Modelcheck.vast_sizes () in
    check_int "vast runs pinned" 77_830_564 c.Modelcheck.runs;
    check_int "vast causal pinned" 37_542_704 c.Modelcheck.causal;
    check_int "vast sync pinned" 23_179_456 c.Modelcheck.sync;
    let vv = Modelcheck.verify ~pool ~sizes:Modelcheck.vast_sizes () in
    check_bool "vast verify: all lemma identities hold" true
      (Modelcheck.ok vv);
    check_bool "vast verify and count agree" true
      (vv.Modelcheck.counts = c)
  end

let () =
  Alcotest.run "sym"
    [
      ( "quotients",
        [
          Alcotest.test_case "configs_quotient / configs_sym" `Quick
            test_configs_quotient;
          Alcotest.test_case "count_runs_sym" `Quick test_count_runs_sym;
          Alcotest.test_case "configs_sym = Config_ref oracle" `Quick
            test_configs_sym_oracle;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "orbit-expanded counts, every predicate" `Quick
            test_verdict_counts;
        ] );
      ( "modelcheck",
        [
          Alcotest.test_case "sym on/off byte-identity" `Quick
            test_modelcheck_equal;
          Alcotest.test_case "jobs 1/2/4/7 byte-identity" `Quick
            test_jobs_identity;
          Alcotest.test_case "verify/count vs oracle at jobs 1/2" `Quick
            test_oracle_jobs;
          Alcotest.test_case "random-predicate placement vs oracle" `Quick
            test_random_placement;
          Alcotest.test_case "mopc universe --deep, with and without --sym"
            `Quick test_cli_universe;
          Alcotest.test_case "deep + vast tiers (MO_SYM_DEEP)" `Slow test_deep;
        ] );
    ]
