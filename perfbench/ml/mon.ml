(* The monitor workload: the compiled streaming monitors, driven through
   their public functions.

   Keyed streams come from [Mo_workload.Stream.key_events] (B15's
   FIFO-src predicate, 3 processes, 24 messages per key, 5% disorder)
   and are generated in set-up. A pass then runs one [Pmon] per key,
   keys sharded over a [Mo_par.Pool] of nproc domains: first the packed
   key set (window 16, one machine word per row), then the wide key set
   (window 128, Bitset rows). Each key's monitor is timed on its own, so
   the per-key walls give the latency percentiles: the wide keys are a
   tenth of all keys, so the median is a packed key and the 99th
   percentile a wide one. Throughput counts both key sets' events.

   The reports of every pass must equal those of the library's own
   sequential driver ([Stream.monitor_keys] at one job) on the same
   keys, which is computed after the measurement. *)

open Mo_core
module S = Mo_workload.Stream
module J = Mo_obs.Jsonb

let pred_src = "x.s < y.s & y.r < x.r & src(x) = src(y)"
let profile = { S.default_profile with S.disorder = 0.05 }
let packed_window = 16
let wide_window = 128
let packed_keys = 16_000
let wide_keys = 1_600

type inputs = { packed : S.event array array; wide : S.event array array }

let generate ~seed =
  let gen nkeys = Array.init nkeys (fun key -> Array.of_list (S.key_events profile ~seed ~key)) in
  { packed = gen packed_keys; wide = gen wide_keys }

let events_of inputs =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 inputs

let monitor_key ~pred ~window (evs : S.event array) key =
  let t = Pmon.create ~window ~nprocs:profile.S.nprocs pred in
  Array.iter
    (function
      | S.Send { msg; src; dst } -> ignore (Pmon.send t ~msg ~src ~dst ())
      | S.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
    evs;
  let mon = Pmon.monitor t in
  {
    S.key;
    events = Mo_order.Monitor.events mon;
    verdict = Pmon.verdict t;
    frontier_bytes = Mo_order.Monitor.frontier_bytes mon;
  }

(* One sharded pass over a key set; each key's wall lands in [walls]. *)
let pass ~pool ~pred ~window (streams : S.event array array) walls =
  Mo_par.Pool.map pool (Array.length streams) ~f:(fun key ->
      let t0 = Common.now () in
      let r = monitor_key ~pred ~window streams.(key) key in
      walls.(key) <- Common.now () -. t0;
      r)

let report_digest reports =
  let buf = Buffer.create (Array.length reports * 24) in
  Array.iter
    (fun (r : S.report) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%d:%s;" r.S.key r.S.events r.S.frontier_bytes
           (match r.S.verdict with
           | None -> "-"
           | Some v ->
               Printf.sprintf "%d@[%s]" v.Pmon.at
                 (String.concat ","
                    (List.map string_of_int (Array.to_list v.Pmon.witness))))))
    reports;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let inputs_digest inputs =
  let show = function
    | S.Send { msg; src; dst } -> Printf.sprintf "s%d:%d:%d" msg src dst
    | S.Deliver { msg } -> Printf.sprintf "d%d" msg
  in
  Common.digest_strings
    (List.map
       (fun a -> String.concat " " (Array.to_list (Array.map show a)))
       (Array.to_list inputs.packed @ Array.to_list inputs.wide))

let compiled () = Eval.compile (Parse.predicate_exn pred_src)

let workload ~seed ~seconds =
  let pred = compiled () in
  let setup_s, inputs = Common.median_of ~k:5 (fun () -> generate ~seed) in
  let pool = Mo_par.Pool.create () in
  let per_pass = ref [] in
  let packed_walls = Array.make packed_keys 0. in
  let wide_walls = Array.make wide_keys 0. in
  let packed_time = ref 0. and wide_time = ref 0. in
  let packed_digests = ref [] and wide_digests = ref [] in
  let passes = ref 0 in
  let t_start = Common.now () in
  while !passes = 0 || Common.now () -. t_start < seconds do
    let t0 = Common.now () in
    let rp = pass ~pool ~pred ~window:packed_window inputs.packed packed_walls in
    let t1 = Common.now () in
    let rw = pass ~pool ~pred ~window:wide_window inputs.wide wide_walls in
    let t2 = Common.now () in
    packed_time := !packed_time +. (t1 -. t0);
    wide_time := !wide_time +. (t2 -. t1);
    let keys = Array.append packed_walls wide_walls in
    per_pass :=
      (Common.quantile keys 0.5, Common.quantile keys 0.99) :: !per_pass;
    packed_digests := report_digest rp :: !packed_digests;
    wide_digests := report_digest rw :: !wide_digests;
    incr passes
  done;
  let rss = Common.vm_hwm_mb "self" in
  (* the reference: the library's sequential driver, generating its own
     streams from the same seed *)
  let seq = Mo_par.Pool.create ~jobs:1 () in
  let ref_packed =
    S.monitor_keys ~pool:seq ~pred ~window:packed_window ~profile
      ~nkeys:packed_keys ~seed ()
  in
  let ref_wide =
    S.monitor_keys ~pool:seq ~pred ~window:wide_window ~profile
      ~nkeys:wide_keys ~seed ()
  in
  let dp = report_digest ref_packed and dw = report_digest ref_wide in
  let bad_packed = List.length (List.filter (( <> ) dp) !packed_digests) in
  let bad_wide = List.length (List.filter (( <> ) dw) !wide_digests) in
  let events_p = events_of inputs.packed and events_w = events_of inputs.wide in
  let per_key_events = 2 * profile.S.nmsgs in
  let sane =
    S.violations ref_packed > 0
    && Array.for_all (fun (r : S.report) -> r.S.events = per_key_events) ref_packed
    && Array.for_all (fun (r : S.report) -> r.S.events = per_key_events) ref_wide
  in
  let keys = !passes * (packed_keys + wide_keys) in
  let failed =
    (bad_packed * packed_keys) + (bad_wide * wide_keys)
  in
  let events = float_of_int (!passes * (events_p + events_w)) in
  (* per-pass percentiles, so that memory stays the same however many
     passes fit in the run *)
  let med f = Common.median (Array.of_list (List.map f !per_pass)) in
  {
    Common.attempted = keys;
    failed;
    correct = failed = 0 && sane;
    metrics =
      [
        ("setup_s", (setup_s, "s"));
        ("ops_per_s", (events /. (!packed_time +. !wide_time), "1/s"));
        ("latency_p50_us", (med fst *. 1e6, "us"));
        ("latency_tail_us", (med snd *. 1e6, "us"));
        ("peak_rss_mb", (rss, "MiB"));
      ];
    detail =
      [
        ("inputs_digest", J.String (inputs_digest inputs));
        ("passes", J.Int !passes);
        ("latency_samples", J.Int keys);
        ( "events_per_s",
          J.Float (float_of_int (!passes * events_p) /. !packed_time) );
        ( "wide_events_per_s",
          J.Float (float_of_int (!passes * events_w) /. !wide_time) );
        ("violations_packed", J.Int (S.violations ref_packed));
        ("violations_wide", J.Int (S.violations ref_wide));
        ("report_digest_packed", J.String dp);
        ("report_digest_wide", J.String dw);
        ("pool_jobs", J.Int (Mo_par.Pool.jobs pool));
      ];
  }
