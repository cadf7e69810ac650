(* B12: the parallel engine — speedup and efficiency of the ported hot
   loops at increasing job counts, with the deterministic outputs pinned
   alongside the timings. Writes BENCH_par.json.

   Three workloads, one per ported loop:
   - universe: exhaustive run enumeration + Lemma 3 classification
     (sharded by message configuration);
   - explore:  exhaustive schedule exploration of a protocol (sharded by
     schedule-tree prefix);
   - matrix:   a slice of the fault-matrix conformance grid (sharded by
     (protocol, fault, seed) cell).

   The deterministic fields (counts, views, verdicts) must be identical
   at every job count — the regression gate compares them exactly. The
   wall-clock fields depend on the host; the JSON records the core count
   so the gate only compares timings between like hosts. *)

open Mo_core
open Mo_protocol
open Mo_workload

let j_int i = Mo_obs.Jsonb.Int i
let j_str s = Mo_obs.Jsonb.String s
let j_bool b = Mo_obs.Jsonb.Bool b
let j_float f = Mo_obs.Jsonb.Float f

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ---- the three workloads ---------------------------------------- *)

(* big enough that a sweep point runs for seconds, not domain-spawn
   noise: the standard T2 sizes plus the 4-process / 4-message tiers *)
let universe_sizes ~deep =
  if deep then Modelcheck.deep_sizes
  else Modelcheck.standard_sizes @ [ (4, 2); (4, 3); (3, 4) ]

(* the concrete walk, so the sweep keeps timing the enumeration kernel's
   scaling rather than the quotiented walk's few dozen shards *)
let run_universe ~deep pool =
  let v = Modelcheck_ref.verify ~pool ~sizes:(universe_sizes ~deep) () in
  Mo_obs.Jsonb.Obj
    [
      ("runs", j_int v.Modelcheck.counts.Modelcheck.runs);
      ("causal", j_int v.Modelcheck.counts.Modelcheck.causal);
      ("sync", j_int v.Modelcheck.counts.Modelcheck.sync);
      ("ok", j_bool (Modelcheck.ok v));
    ]

let explore_ops =
  [
    Sim.op ~at:0 ~src:0 ~dst:1 ();
    Sim.op ~at:1 ~src:0 ~dst:1 ();
    Sim.op ~at:2 ~src:1 ~dst:0 ();
    Sim.op ~at:3 ~src:1 ~dst:0 ();
    Sim.op ~at:4 ~src:0 ~dst:1 ();
  ]

let run_explore pool =
  match
    Explore.distinct_user_views_par ~pool ~max_executions:2_000_000 ~nprocs:2
      Fifo.factory explore_ops
  with
  | Error e -> failwith ("explore bench: " ^ e)
  | Ok (views, stats) ->
      Mo_obs.Jsonb.Obj
        [
          ("executions", j_int stats.Explore.executions);
          ("views", j_int (List.length views));
          ("truncated", j_bool stats.Explore.truncated);
        ]

let matrix_protocols =
  [
    ("tagless", Tagless.factory);
    ("fifo", Fifo.factory);
    ("causal-rst", Causal_rst.factory);
    ("causal-ses", Causal_ses.factory);
    ("sync-token", Sync_token.factory);
    ("sync-priority", Sync_priority.factory);
    ("flush", Flush.factory);
  ]

let matrix_faults =
  [
    ("drop150", Net.make ~drop_permille:150 ());
    ("drop+dup", Net.make ~drop_permille:100 ~duplicate_permille:100 ());
  ]

let matrix_seeds = [ 1; 2; 3; 4; 5 ]

let matrix_cells =
  List.concat_map
    (fun (pname, factory) ->
      List.concat_map
        (fun (fname, faults) ->
          List.map (fun seed -> (pname, factory, fname, faults, seed))
            matrix_seeds)
        matrix_faults)
    matrix_protocols
  |> Array.of_list

let run_matrix pool =
  let ops = (Gen.uniform ~nprocs:3 ~nmsgs:150 ~seed:6).Gen.ops in
  let verdicts =
    Mo_par.Pool.map pool (Array.length matrix_cells) ~f:(fun i ->
        let _, factory, _, faults, seed = matrix_cells.(i) in
        let cfg = { (Sim.default_config ~nprocs:3) with Sim.seed; faults } in
        let r = Conformance.check_exn cfg (Wrap.reliable factory) ops in
        r.Conformance.live && r.Conformance.traffic_consistent)
  in
  Mo_obs.Jsonb.Obj
    [
      ("cells", j_int (Array.length verdicts));
      ("all_pass", j_bool (Array.for_all Fun.id verdicts));
    ]

(* ---- the sweep --------------------------------------------------- *)

let sweep ~name ~jobs_list run =
  Format.printf "@.-- %s@." name;
  let timed =
    List.map
      (fun jobs ->
        let pool = Mo_par.Pool.create ~jobs () in
        let result, wall = time (fun () -> run pool) in
        (jobs, result, wall))
      jobs_list
  in
  let t1 =
    match timed with
    | (1, _, w) :: _ -> w
    | _ -> (match timed with (_, _, w) :: _ -> w | [] -> 1.0)
  in
  let result0 =
    match timed with (_, r, _) :: _ -> r | [] -> Mo_obs.Jsonb.Null
  in
  List.iter
    (fun (jobs, result, wall) ->
      if Mo_obs.Jsonb.to_string result <> Mo_obs.Jsonb.to_string result0 then
        failwith
          (Printf.sprintf "%s: result at %d jobs differs from jobs=1" name
             jobs);
      Format.printf "  jobs %d: %7.3f s  speedup %5.2fx  efficiency %3.0f%%@."
        jobs wall (t1 /. wall)
        (t1 /. wall /. float_of_int jobs *. 100.))
    timed;
  let timings =
    List.map
      (fun (jobs, _, wall) ->
        ( string_of_int jobs,
          Mo_obs.Jsonb.Obj
            [
              ("wall_s", j_float wall);
              ("speedup", j_float (t1 /. wall));
              ("efficiency", j_float (t1 /. wall /. float_of_int jobs));
            ] ))
      timed
  in
  (name, Mo_obs.Jsonb.Obj [ ("result", result0); ("timings", Mo_obs.Jsonb.Obj timings) ])

let summary ?(deep = false) ?(jobs_list = [ 1; 2; 4 ]) () =
  Format.printf
    "@.%s@.== B12: parallel engine speedup (jobs %s%s)@.%s@."
    (String.make 74 '=')
    (String.concat "," (List.map string_of_int jobs_list))
    (if deep then ", deep universe" else "")
    (String.make 74 '=');
  let universe = sweep ~name:"universe" ~jobs_list (run_universe ~deep) in
  let explore = sweep ~name:"explore" ~jobs_list run_explore in
  let matrix = sweep ~name:"matrix" ~jobs_list run_matrix in
  let workloads = [ universe; explore; matrix ] in
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
        ("jobs", Mo_obs.Jsonb.List (List.map j_int jobs_list));
        ("deep", j_bool deep);
        ("workloads", Mo_obs.Jsonb.Obj workloads);
      ]
  in
  let oc = open_out "BENCH_par.json" in
  output_string oc (Mo_obs.Jsonb.to_string_pretty json);
  close_out oc;
  Format.printf "  parallel-engine results written to BENCH_par.json@."
