(* B14: the enumeration/evaluation kernel — sequential throughput of the
   single-closure backtracking enumerator and the compiled predicate
   evaluator against the pre-kernel reference pipeline, with the
   deterministic outputs pinned alongside the timings. Writes
   BENCH_core.json.

   Two workloads:
   - modelcheck: Modelcheck.verify over the B12 universe tier (the
     standard T2 sizes plus (4,2)/(4,3)/(3,4); --deep switches to the
     full deep tier). The "reference" arm re-enacts the pre-kernel
     pipeline from public API: materialized permutations enumeration
     (Eval_ref.runs_ref), a second from-scratch closure per run
     (Run.Abstract.create), the scalar limit checks (check_causal /
     check_sync) and the interpreting evaluator (Eval_ref.satisfies_ref).
     The "kernel" arm is the model checker over the concrete walk
     (Modelcheck_ref, the test suite's oracle). Counts and lemma
     verdicts must agree between the arms and be byte-identical at
     every job count of the sweep.
   - eval: every Catalog predicate evaluated over every abstract run at
     (3 procs, 3 msgs), compiled-plan vs reference-interpreter arms;
     per-predicate violation counts pinned.
   - sym (B18): the symmetry-quotiented walk (Modelcheck.verify, the
     shipped one) against the concrete kernel on the same tier, verdicts
     byte-identical between the arms and across the jobs sweep, plus
     the vast tier (77,830,564 orbit-expanded runs) walked quotiented
     only, its exact cardinalities pinned as integer gate keys.

   Timing keys follow the gate's conventions: wall_s (lower is better),
   throughput (higher is better), kernel_speedup / sym_speedup (higher
   is better — the acceptance bars are >= 3x kernel_speedup for the
   modelcheck workload and >= 5x sym_speedup on the deep tier). *)

open Mo_order
open Mo_core

let j_int i = Mo_obs.Jsonb.Int i
let j_str s = Mo_obs.Jsonb.String s
let j_bool b = Mo_obs.Jsonb.Bool b
let j_float f = Mo_obs.Jsonb.Float f

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let universe_sizes ~deep =
  if deep then Modelcheck.deep_sizes
  else Modelcheck.standard_sizes @ [ (4, 2); (4, 3); (3, 4) ]

(* ---- the pre-kernel reference pipeline --------------------------- *)

(* the old Run.to_abstract: rebuild the closure from scratch out of the
   program-order chains (Abstract.create adds the x.s ▷ x.r edges) *)
let abstract_ref run =
  let nmsgs = Run.nmsgs run in
  let attrs =
    Array.init nmsgs (fun m ->
        Run.attrs_known ~src:(Run.msg_src run m) ~dst:(Run.msg_dst run m) ())
  in
  let edges = ref [] in
  for p = 0 to Run.nprocs run - 1 do
    let rec chain = function
      | a :: (b :: _ as rest) ->
          edges := (a, b) :: !edges;
          chain rest
      | [ _ ] | [] -> ()
    in
    chain (Run.sequence run p)
  done;
  Run.Abstract.create_exn ~nmsgs ~attrs !edges

type ref_acc = {
  r_runs : int;
  r_causal : int;
  r_sync : int;
  r_ok : bool; (* conjunction of all three lemma verdict families *)
}

let reference_verify sizes =
  let b1 = Catalog.causal_b1.Catalog.pred
  and b2 = Catalog.causal_b2.Catalog.pred
  and b3 = Catalog.causal_b3.Catalog.pred
  and asyncs =
    List.map (fun (e : Catalog.entry) -> e.Catalog.pred) Catalog.async_forms
  in
  let step acc run =
    let r = abstract_ref run in
    let causal = Result.is_ok (Limits.check_causal r)
    and sync = Result.is_ok (Limits.check_sync r) in
    let s2 = Eval_ref.satisfies_ref b2 r in
    {
      r_runs = acc.r_runs + 1;
      r_causal = (acc.r_causal + if causal then 1 else 0);
      r_sync = (acc.r_sync + if sync then 1 else 0);
      r_ok =
        acc.r_ok
        && ((not sync) || causal)
        && Eval_ref.satisfies_ref b1 r = s2
        && Eval_ref.satisfies_ref b3 r = s2
        && s2 = causal
        && List.for_all (fun p -> Eval_ref.satisfies_ref p r) asyncs;
    }
  in
  List.fold_left
    (fun acc (nprocs, nmsgs) ->
      List.fold_left
        (fun acc msgs ->
          List.fold_left step acc (Eval_ref.runs_ref ~nprocs ~msgs))
        acc
        (Enumerate.configs ~nprocs ~nmsgs ()))
    { r_runs = 0; r_causal = 0; r_sync = 0; r_ok = true }
    sizes

(* ---- workload 1: the model checker ------------------------------- *)

let verdict_json (v : Modelcheck.verdict) =
  Mo_obs.Jsonb.Obj
    [
      ("runs", j_int v.Modelcheck.counts.Modelcheck.runs);
      ("causal", j_int v.Modelcheck.counts.Modelcheck.causal);
      ("sync", j_int v.Modelcheck.counts.Modelcheck.sync);
      ("ok", j_bool (Modelcheck.ok v));
    ]

let bench_modelcheck ~deep ~jobs_list =
  let sizes = universe_sizes ~deep in
  Format.printf "@.-- modelcheck (%d sizes)@." (List.length sizes);
  let ref_acc, ref_wall = time (fun () -> reference_verify sizes) in
  let kern, kern_wall =
    time (fun () ->
        Modelcheck_ref.verify ~pool:(Mo_par.Pool.create ~jobs:1 ()) ~sizes ())
  in
  (* the two pipelines must tell the same story before timing means
     anything *)
  if
    ref_acc.r_runs <> kern.Modelcheck.counts.Modelcheck.runs
    || ref_acc.r_causal <> kern.Modelcheck.counts.Modelcheck.causal
    || ref_acc.r_sync <> kern.Modelcheck.counts.Modelcheck.sync
    || ref_acc.r_ok <> Modelcheck.ok kern
  then failwith "core bench: reference and kernel pipelines disagree";
  (* byte-identical results at every job count *)
  let base = Mo_obs.Jsonb.to_string (verdict_json kern) in
  List.iter
    (fun jobs ->
      let v =
        Modelcheck_ref.verify ~pool:(Mo_par.Pool.create ~jobs ()) ~sizes ()
      in
      if Mo_obs.Jsonb.to_string (verdict_json v) <> base then
        failwith
          (Printf.sprintf "core bench: verdict at %d jobs differs from jobs=1"
             jobs))
    (List.filter (fun j -> j <> 1) jobs_list);
  let runs = float_of_int ref_acc.r_runs in
  let speedup = ref_wall /. kern_wall in
  Format.printf
    "  reference: %7.3f s  %9.0f runs/s@.  kernel:    %7.3f s  %9.0f \
     runs/s@.  kernel speedup %.2fx  (results identical at jobs %s)@."
    ref_wall (runs /. ref_wall) kern_wall (runs /. kern_wall) speedup
    (String.concat "," (List.map string_of_int jobs_list));
  if speedup < 3.0 then
    Format.printf "  WARNING: kernel speedup below the 3x acceptance bar@.";
  ( "modelcheck",
    Mo_obs.Jsonb.Obj
      [
        ("result", verdict_json kern);
        ( "jobs_checked",
          Mo_obs.Jsonb.List (List.map j_int jobs_list) );
        ( "timings",
          Mo_obs.Jsonb.Obj
            [
              ( "reference",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float ref_wall);
                    ("throughput", j_float (runs /. ref_wall));
                  ] );
              ( "kernel",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float kern_wall);
                    ("throughput", j_float (runs /. kern_wall));
                  ] );
              ("kernel_speedup", j_float speedup);
            ] );
      ] )

(* ---- workload 2: predicate evaluation ---------------------------- *)

let eval_repeat = 5

let bench_eval () =
  let runs = Enumerate.abstract_runs ~nprocs:3 ~nmsgs:3 () in
  let entries = Catalog.all in
  let nevals =
    List.length runs * List.length entries * eval_repeat
  in
  Format.printf "@.-- eval (%d runs x %d predicates x %d passes)@."
    (List.length runs) (List.length entries) eval_repeat;
  (* per-predicate violation counts: the deterministic output both arms
     must agree on *)
  let count holds_of =
    List.map
      (fun (e : Catalog.entry) ->
        let holds = holds_of e.Catalog.pred in
        ( e.Catalog.name,
          List.fold_left (fun n r -> if holds r then n + 1 else n) 0 runs ))
      entries
  in
  let timed holds_of =
    time (fun () ->
        let last = ref [] in
        for _ = 1 to eval_repeat do
          last := count holds_of
        done;
        !last)
  in
  let ref_counts, ref_wall = timed (fun p -> Eval_ref.holds_ref p) in
  let kern_counts, kern_wall =
    timed (fun p ->
        let c = Eval.compile p in
        fun r -> Eval.holds_c c r)
  in
  if ref_counts <> kern_counts then
    failwith "core bench: compiled evaluator disagrees with the reference";
  let evals = float_of_int nevals in
  let speedup = ref_wall /. kern_wall in
  Format.printf
    "  reference: %7.3f s  %9.0f evals/s@.  kernel:    %7.3f s  %9.0f \
     evals/s@.  kernel speedup %.2fx@."
    ref_wall (evals /. ref_wall) kern_wall (evals /. kern_wall) speedup;
  ( "eval",
    Mo_obs.Jsonb.Obj
      [
        ( "result",
          Mo_obs.Jsonb.Obj
            [
              ("runs", j_int (List.length runs));
              ("predicates", j_int (List.length entries));
              ( "violations",
                Mo_obs.Jsonb.Obj
                  (List.map (fun (n, c) -> (n, j_int c)) kern_counts) );
            ] );
        ( "timings",
          Mo_obs.Jsonb.Obj
            [
              ( "reference",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float ref_wall);
                    ("throughput", j_float (evals /. ref_wall));
                  ] );
              ( "kernel",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float kern_wall);
                    ("throughput", j_float (evals /. kern_wall));
                  ] );
              ("kernel_speedup", j_float speedup);
            ] );
      ] )

(* ---- workload 3 (B18): the symmetry-quotiented kernel ------------- *)

(* B18: Modelcheck.verify's quotiented walk — one canonical representative
   per process/message symmetry orbit, counts expanded by exact orbit
   sizes, decided subtrees pruned (DESIGN.md §3j) — against the concrete
   kernel (Modelcheck_ref) on the same tier. The verdicts must be
   byte-identical between the arms and across the jobs sweep; the
   acceptance bar is sym_speedup >= 5x on the deep tier. The vast tier
   (deep + the 5-process/5-message sizes, 77,830,564 orbit-expanded
   runs, ~83x deep) is only ever walked quotiented; its cardinalities
   are pinned as exact integer gate keys. *)
let bench_sym ~deep ~jobs_list =
  let sizes = universe_sizes ~deep in
  Format.printf "@.-- sym (%d sizes%s + vast)@." (List.length sizes)
    (if deep then ", deep" else "");
  let kern, kern_wall =
    time (fun () ->
        Modelcheck_ref.verify ~pool:(Mo_par.Pool.create ~jobs:1 ()) ~sizes ())
  in
  let sym, sym_wall =
    time (fun () ->
        Modelcheck.verify ~pool:(Mo_par.Pool.create ~jobs:1 ()) ~sizes ())
  in
  let base = Mo_obs.Jsonb.to_string (verdict_json kern) in
  if Mo_obs.Jsonb.to_string (verdict_json sym) <> base then
    failwith "core bench: sym verdict differs from the concrete kernel";
  List.iter
    (fun jobs ->
      let v =
        Modelcheck.verify ~pool:(Mo_par.Pool.create ~jobs ()) ~sizes ()
      in
      if Mo_obs.Jsonb.to_string (verdict_json v) <> base then
        failwith
          (Printf.sprintf
             "core bench: sym verdict at %d jobs differs from jobs=1" jobs))
    (List.filter (fun j -> j <> 1) jobs_list);
  let runs = float_of_int kern.Modelcheck.counts.Modelcheck.runs in
  let speedup = kern_wall /. sym_wall in
  Format.printf
    "  concrete:  %7.3f s  %9.0f runs/s@.  sym:       %7.3f s  %9.0f \
     runs/s (orbit-expanded)@.  sym speedup %.2fx  (verdicts identical at \
     jobs %s)@."
    kern_wall (runs /. kern_wall) sym_wall (runs /. sym_wall) speedup
    (String.concat "," (List.map string_of_int jobs_list));
  if deep && speedup < 5.0 then
    Format.printf "  WARNING: sym speedup below the 5x deep-tier bar@.";
  let vast, vast_wall =
    time (fun () ->
        Modelcheck.verify
          ~pool:(Mo_par.Pool.create ~jobs:1 ())
          ~sizes:Modelcheck.vast_sizes ())
  in
  if not (Modelcheck.ok vast) then
    failwith "core bench: vast-tier lemma identities failed";
  let vruns = float_of_int vast.Modelcheck.counts.Modelcheck.runs in
  Format.printf
    "  vast:      %7.3f s  %9.0f runs/s  (%d orbit-expanded runs over %d \
     sizes)@."
    vast_wall (vruns /. vast_wall) vast.Modelcheck.counts.Modelcheck.runs
    (List.length Modelcheck.vast_sizes);
  ( "sym",
    Mo_obs.Jsonb.Obj
      [
        ("result", verdict_json sym);
        ( "vast",
          Mo_obs.Jsonb.Obj
            [
              ("sizes", j_int (List.length Modelcheck.vast_sizes));
              ("runs", j_int vast.Modelcheck.counts.Modelcheck.runs);
              ("causal", j_int vast.Modelcheck.counts.Modelcheck.causal);
              ("sync", j_int vast.Modelcheck.counts.Modelcheck.sync);
              ("ok", j_bool (Modelcheck.ok vast));
            ] );
        ("jobs_checked", Mo_obs.Jsonb.List (List.map j_int jobs_list));
        ( "timings",
          Mo_obs.Jsonb.Obj
            [
              ( "concrete",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float kern_wall);
                    ("throughput", j_float (runs /. kern_wall));
                  ] );
              ( "sym",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float sym_wall);
                    ("throughput", j_float (runs /. sym_wall));
                  ] );
              ("sym_speedup", j_float speedup);
              ( "vast",
                Mo_obs.Jsonb.Obj
                  [
                    ("wall_s", j_float vast_wall);
                    ("throughput", j_float (vruns /. vast_wall));
                  ] );
            ] );
      ] )

(* ---- entry point ------------------------------------------------- *)

let summary ?(deep = false) ?(jobs_list = [ 1; 2; 4 ]) () =
  Format.printf
    "@.%s@.== B14+B18: enumeration + evaluation kernel throughput%s@.%s@."
    (String.make 74 '=')
    (if deep then " (deep universe)" else "")
    (String.make 74 '=');
  let modelcheck = bench_modelcheck ~deep ~jobs_list in
  let eval = bench_eval () in
  let sym = bench_sym ~deep ~jobs_list in
  let json =
    Mo_obs.Jsonb.Obj
      [
        ( "host",
          Mo_obs.Jsonb.Obj
            [
              ("ocaml", j_str Sys.ocaml_version);
              ("domains", j_bool Mo_par.available);
              ("cores", j_int (Mo_par.recommended_jobs ()));
            ] );
        ("deep", j_bool deep);
        ("workloads", Mo_obs.Jsonb.Obj [ modelcheck; eval; sym ]);
      ]
  in
  let oc = open_out "BENCH_core.json" in
  output_string oc (Mo_obs.Jsonb.to_string_pretty json);
  close_out oc;
  Format.printf "  kernel results written to BENCH_core.json@."
