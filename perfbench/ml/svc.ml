(* The svc-hot and svc-cold workloads: the shipped mopcd at its default
   settings, driven over a private Unix-domain socket. *)

module J = Mo_obs.Jsonb

type mode = Hot | Cold

let conns () = Mo_par.recommended_jobs ()

(* Never-seen requests available to one svc-cold run: enough for
   [cold_rate] requests per second, above the ~1,600 the daemon
   reaches on the miss path on a 2-core host. *)
let cold_rate = 2000

let socket_path () =
  Printf.sprintf ".bench_build/run/d%d.sock" (Unix.getpid ())

let stats_op = Traffic.encode (-1) Mo_service.Codec.Stats

(* Warm the cache with every hot frame once and keep each verified
   response: a later answer to the same frame must match it byte for
   byte (responses are a pure function of the canonical form). *)
let warm sock (reqs : Traffic.request array) =
  let c = Wire.connect sock in
  let expected =
    Array.mapi
      (fun id (r : Traffic.request) ->
        let p = Wire.call c r.frame in
        if not (Traffic.check ~id r.expect p) then
          failwith (Printf.sprintf "svc-hot: wrong warm-up answer to frame %d" id);
        p)
      reqs
  in
  Wire.close c;
  expected

type session = {
  daemon : Wire.daemon;
  reqs : Traffic.request array;
  expected : string array;  (** svc-hot only *)
}

let setup ~mode ~seed ~seconds ~mopcd =
  let sock = socket_path () in
  let reqs =
    match mode with
    | Hot -> Traffic.hot ~seed
    | Cold ->
        Traffic.cold ~seed
          ~n:(cold_rate * int_of_float (Float.ceil seconds))
  in
  let daemon = Wire.start ~exe:mopcd ~sock in
  let expected = match mode with Hot -> warm sock reqs | Cold -> [||] in
  { daemon; reqs; expected }

(* The request source and answer check of [mode] over the session's
   requests; svc-cold's source runs once through them. *)
let source ~mode s =
  let n = Array.length s.reqs in
  match mode with
  | Hot ->
      ( (fun i p -> String.equal p s.expected.(i)),
        Load.groups ~n ~size:1 ~cycle:true )
  | Cold ->
      ( (fun i p -> Traffic.check ~id:i s.reqs.(i).expect p),
        Load.groups ~n ~size:8 ~cycle:false )

let run_load ?span ?source:src ~mode ~seconds s =
  let frames = Array.map (fun (r : Traffic.request) -> r.frame) s.reqs in
  let check, next = match src with Some x -> x | None -> source ~mode s in
  Load.drive ~sock:s.daemon.Wire.sock ~conns:(conns ()) ~seconds ~frames ~check
    ~next ?span ()

(* The daemon's own counters, through its [stats] op. *)
let daemon_stats s =
  let c = Wire.connect s.daemon.Wire.sock in
  let p = Wire.call c stats_op in
  Wire.close c;
  match J.of_string p with
  | Ok resp -> (
      match Mo_service.Codec.result_of_response resp with
      | Ok (J.Obj fields) -> (
          match List.assoc_opt "cache" fields with
          | Some (J.Obj cache) ->
              let int k =
                match List.assoc_opt k cache with Some (J.Int v) -> v | _ -> 0
              in
              (int "hits", int "misses", int "evictions")
          | _ -> failwith "stats: no cache object")
      | _ -> failwith "stats: error response")
  | Error e -> failwith ("stats: " ^ e)

(* Set up [k] times (each a fresh daemon, inputs and warm-up) and keep
   the last; the set-up time is the median. *)
let setups ~k ~mode ~seed ~seconds ~mopcd =
  let walls = Array.make k 0. in
  let rec go i =
    let t0 = Common.now () in
    let s = setup ~mode ~seed ~seconds ~mopcd in
    walls.(i) <- Common.now () -. t0;
    if i < k - 1 then begin
      Wire.stop s.daemon;
      go (i + 1)
    end
    else s
  in
  let s = go 0 in
  (Common.median walls, s)

let workload ~mode ~seed ~seconds ~mopcd =
  let setup_s, s =
    setups ~k:(match mode with Hot -> 11 | Cold -> 3) ~mode ~seed ~seconds ~mopcd
  in
  let st = run_load ~mode ~seconds s in
  let rss = Common.vm_hwm_mb (string_of_int s.daemon.Wire.pid) in
  let hits, misses, evictions = daemon_stats s in
  Wire.stop s.daemon;
  let lat = Common.Samples.to_array st.Load.lat_us in
  let attempted = st.Load.ok + st.Load.failed in
  (* the tail is the percentile inside each workload's slow mode: on
     svc-hot the ~10% of requests that wait for a core (the 99th is
     set by the host's scheduling stalls, which come and go between
     runs); on svc-cold the lattice groups, one in 64 *)
  let tail = match mode with Hot -> 0.95 | Cold -> 0.99 in
  {
    Common.attempted;
    failed = st.Load.failed;
    correct = st.Load.failed = 0 && st.Load.ok > 0;
    metrics =
      [
        ("setup_s", (setup_s, "s"));
        ("ops_per_s", (float_of_int st.Load.ok /. st.Load.wall, "1/s"));
        ("latency_p50_us", (Common.quantile lat 0.5, "us"));
        ("latency_tail_us", (Common.quantile lat tail, "us"));
        ("peak_rss_mb", (rss, "MiB"));
      ];
    detail =
      [
        ("inputs_digest", J.String (Traffic.digest s.reqs));
        ("requests_generated", J.Int (Array.length s.reqs));
        ("connections", J.Int (conns ()));
        ("latency_samples", J.Int (Array.length lat));
        ("tail_quantile", J.Float tail);
        ("latency_p99_us", J.Float (Common.quantile lat 0.99));
        ("wall_s", J.Float st.Load.wall);
        ("reconnects", J.Int st.Load.reconnects);
        ("resent", J.Int st.Load.resent);
        ("generator_busy_share", J.Float st.Load.busy_share);
        ("cache_hits", J.Int hits);
        ("cache_misses", J.Int misses);
        ("cache_evictions", J.Int evictions);
        ("daemon_jobs", J.Int (Mo_par.default_jobs ()));
      ];
  }
