(* The traced run: the seeded inputs replayed through each layer's
   public functions, with a span around every call.

   Every traced run reports every layer, so that any two runs can be
   compared metric by metric. A layer on the selected workload's path
   is replayed with that workload's inputs (the client and funnel
   layers take svc-cold traffic when the workload is svc-cold, svc-hot
   traffic otherwise); the compute, model-checking and monitor layers
   always take their owning workload's inputs from the same seed.

   Spans are kept in memory and written to
   .bench_build/out/spans-WORKLOAD-SEED.tsv at the end. Metrics that are
   a span's median are in the unit their name ends with; "self" times
   are a parent's median minus its children's medians. *)

open Mo_core
module C = Mo_service.Codec
module J = Mo_obs.Jsonb

let sp = Spans.with_span
let ms name = Spans.median_of name
let session_seconds = 6.

type tally = { mutable checks : int; mutable bad : int }

let expect t what ok =
  t.checks <- t.checks + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    Printf.eprintf "pb: traced check failed: %s\n%!" what
  end

let words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

let json_of_frame frame =
  String.sub frame
    (String.index frame '\n' + 1)
    (String.length frame - String.index frame '\n' - 2)

let cache_key (req : C.request) =
  match req with
  | C.Classify p -> "c:" ^ Canon.digest p
  | C.Implies (a, b) -> "i:" ^ Canon.digest a ^ ":" ^ Canon.digest b
  | C.Lattice (p, _) -> "l:3:" ^ Canon.digest p
  | _ -> invalid_arg "cache_key"

let compute (req : C.request) =
  match req with
  | C.Classify p -> C.classify_payload p
  | C.Implies (a, b) -> C.implies_payload a b
  | C.Lattice (p, kmax) -> C.lattice_payload ?kmax p
  | _ -> invalid_arg "compute"

(* ---- client, daemon and the request funnel ------------------------ *)

let service t ~mode ~seed ~mopcd =
  let s = Svc.setup ~mode ~seed ~seconds:(2. *. session_seconds) ~mopcd in
  (* untraced and traced slices alternate, in the order U T, T U, U T,
     so that both see the same host and neither always goes first;
     their median waits give the tracing overhead *)
  let src = Svc.source ~mode s in
  let slices = 3 in
  let slice = session_seconds /. float_of_int slices in
  let runs =
    List.init (2 * slices) (fun k ->
        let traced = (k + (k / 2)) mod 2 = 1 in
        let span = if traced then Some "client.wait" else None in
        (span, Svc.run_load ?span ~source:src ~mode ~seconds:slice s))
  in
  let pooled traced =
    let out = Common.Samples.create () in
    List.iter
      (fun (span, st) ->
        if Option.is_some span = traced then
          Array.iter (Common.Samples.add out)
            (Common.Samples.to_array st.Load.lat_us))
      runs;
    Common.median (Common.Samples.to_array out)
  in
  let total f = List.fold_left (fun acc (_, st) -> acc + f st) 0 runs in
  let busy =
    Common.median
      (Array.of_list
         (List.filter_map
            (fun (span, st) -> Option.map (fun _ -> st.Load.busy_share) span)
            runs))
  in
  let hits, misses, evictions = Svc.daemon_stats s in
  Wire.stop s.Svc.daemon;
  expect t "client session answers" (total (fun st -> st.Load.failed) = 0);
  (* the funnel mopcd runs per request, replayed in process on the same
     frames: parse, decode, digest, probe, (compute,) encode *)
  let cache =
    Mo_service.Cache.create ~capacity:4096 ~stripes:8 ()
  in
  let reqs =
    match mode with
    | Svc.Hot -> s.Svc.reqs
    | Svc.Cold ->
        Array.of_list
          (List.filter
             (fun (r : Traffic.request) ->
               match r.req with C.Lattice _ -> false | _ -> true)
             (Array.to_list (Array.sub s.Svc.reqs 0 600)))
  in
  (match mode with
  | Svc.Hot ->
      Array.iter
        (fun (r : Traffic.request) ->
          Mo_service.Cache.put cache (cache_key r.req) (compute r.req))
        reqs
  | Svc.Cold -> ());
  let rounds = match mode with Svc.Hot -> 20 | Svc.Cold -> 1 in
  for _ = 1 to rounds do
    Array.iteri
      (fun id (r : Traffic.request) ->
        let text = json_of_frame r.frame in
        sp "server.funnel" (fun () ->
            let j =
              sp "jsonb.of_string" (fun () -> Result.get_ok (J.of_string text))
            in
            let env =
              sp "codec.request_of_json" (fun () ->
                  Result.get_ok (C.request_of_json j))
            in
            let key = sp "canon.digest" (fun () -> cache_key env.C.req) in
            let payload =
              match
                sp "cache.find" (fun () -> Mo_service.Cache.find cache key)
              with
              | Some p -> p
              | None ->
                  let p = sp "compute" (fun () -> compute env.C.req) in
                  Mo_service.Cache.put cache key p;
                  p
            in
            ignore
              (sp "codec.encode_frame" (fun () ->
                   C.encode_frame (C.ok_response ~id payload)))))
      reqs
  done;
  let wait = pooled true and wait_plain = pooled false in
  let funnel = ms "server.funnel" *. 1e6 in
  [
    ("client.wait_us", (wait, "us"));
    ("server.funnel_us", (funnel, "us"));
    ("server.residual_us", (wait -. funnel, "us"));
    ("client.reconnects", (float_of_int (total (fun st -> st.Load.reconnects)), "count"));
    ("client.resent", (float_of_int (total (fun st -> st.Load.resent)), "count"));
    ("client.busy_share", (busy, "ratio"));
    ("trace.overhead_ratio", (wait /. wait_plain, "x"));
    ("jsonb.of_string_us", (ms "jsonb.of_string" *. 1e6, "us"));
    ("codec.request_of_json_us", (ms "codec.request_of_json" *. 1e6, "us"));
    ("canon.digest_us", (ms "canon.digest" *. 1e6, "us"));
    ("cache.find_us", (ms "cache.find" *. 1e6, "us"));
    ("codec.encode_frame_us", (ms "codec.encode_frame" *. 1e6, "us"));
    ( "cache.hit_ratio",
      (float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio") );
    ("cache.evictions", (float_of_int evictions, "count"));
  ]

(* ---- the engine and the compute it funnels to (svc-cold inputs) ---- *)

let compute_layers t ~seed =
  let hot = Traffic.hot ~seed in
  let cold = Traffic.cold ~seed ~n:(Traffic.lattice_every + 64) in
  let env i (r : Traffic.request) = { C.id = i; deadline_ms = None; req = r.req } in
  let engine = Mo_service.Engine.create () in
  Array.iteri (fun i r -> ignore (Mo_service.Engine.handle engine (env i r))) hot;
  let reps = 30 in
  let hit_words = Common.Samples.create () in
  for _ = 1 to reps do
    Array.iteri
      (fun i r ->
        let _, w =
          sp "engine.handle.hit" (fun () ->
              words (fun () -> Mo_service.Engine.handle engine (env i r)))
        in
        Common.Samples.add hit_words w)
      hot
  done;
  for _ = 1 to reps do
    Array.iter
      (fun (r : Traffic.request) ->
        match r.req with
        | C.Classify p -> ignore (sp "engine.hit.digest" (fun () -> Canon.digest p))
        | _ -> ())
      hot
  done;
  let probe = Mo_service.Cache.create ~capacity:4096 ~stripes:8 () in
  Array.iter
    (fun (r : Traffic.request) -> Mo_service.Cache.put probe (cache_key r.req) ())
    hot;
  for _ = 1 to reps do
    Array.iter
      (fun (r : Traffic.request) ->
        let key = cache_key r.req in
        ignore (sp "engine.hit.find" (fun () -> Mo_service.Cache.find probe key)))
      hot
  done;
  let misses =
    List.filter
      (fun (r : Traffic.request) ->
        match r.req with C.Lattice _ -> false | _ -> true)
      (Array.to_list cold)
  in
  let fresh = Mo_service.Engine.create () in
  let miss_words = Common.Samples.create () in
  List.iteri
    (fun i r ->
      let resp, w =
        sp "engine.handle.miss" (fun () ->
            words (fun () -> Mo_service.Engine.handle fresh (env i r)))
      in
      Common.Samples.add miss_words w;
      expect t "engine miss answer"
        (Traffic.check ~id:i r.Traffic.expect (J.to_string resp)))
    misses;
  List.iter
    (fun (r : Traffic.request) ->
      match r.req with
      | C.Classify p ->
          ignore (sp "codec.classify_payload" (fun () -> C.classify_payload p));
          let c = sp "canon.predicate" (fun () -> Canon.predicate p) in
          ignore (sp "classify.classify" (fun () -> Classify.classify c));
          ignore (sp "canon.digest.cold" (fun () -> Canon.digest p))
      | C.Implies (a, b) ->
          ignore (sp "codec.implies_payload" (fun () -> C.implies_payload a b))
      | _ -> ())
    misses;
  let lattice_pred =
    match cold.(Traffic.lattice_every - 1).Traffic.req with
    | C.Lattice (p, _) -> p
    | _ -> assert false
  in
  ignore (sp "codec.lattice_payload" (fun () -> C.lattice_payload lattice_pred));
  ignore
    (sp "modelcheck.placement" (fun () ->
         Modelcheck.placement
           ~pool:(Mo_par.Pool.create ~jobs:1 ())
           ~sizes:Modelcheck.universe_sizes
           (Canon.predicate lattice_pred)));
  let us name = ms name *. 1e6 in
  [
    ("engine.handle_hit_us", (us "engine.handle.hit", "us"));
    ("engine.handle_miss_us", (us "engine.handle.miss", "us"));
    ( "engine.self_us",
      ( us "engine.handle.hit" -. us "engine.hit.digest" -. us "engine.hit.find",
        "us" ) );
    ( "gc.minor_words_per_request_hit",
      (Common.median (Common.Samples.to_array hit_words), "words") );
    ( "gc.minor_words_per_request_miss",
      (Common.median (Common.Samples.to_array miss_words), "words") );
    ("codec.classify_payload_us", (us "codec.classify_payload", "us"));
    ("canon.predicate_us", (us "canon.predicate", "us"));
    ("classify.classify_us", (us "classify.classify", "us"));
    ( "codec.classify_payload.self_us",
      ( us "codec.classify_payload" -. us "canon.predicate"
        -. us "classify.classify" -. us "canon.digest.cold",
        "us" ) );
    ("codec.implies_payload_us", (us "codec.implies_payload", "us"));
    ("codec.lattice_payload_ms", (ms "codec.lattice_payload" *. 1e3, "ms"));
    ("modelcheck.placement_ms", (ms "modelcheck.placement" *. 1e3, "ms"));
  ]

(* ---- the domain pool ---------------------------------------------- *)

let pool_layer () =
  let pool = Mo_par.Pool.create () in
  let n = Mo_par.Pool.jobs pool in
  for _ = 1 to 200 do
    ignore (sp "par.pool_map" (fun () -> Mo_par.Pool.map pool n ~f:ignore))
  done;
  [ ("par.pool_map_us", (ms "par.pool_map" *. 1e6, "us")) ]

(* ---- the model checker, at one job (verify inputs) ----------------- *)

let count_walk ~pool sizes =
  List.fold_left
    (fun acc (nprocs, nmsgs) ->
      acc
      + Mo_order.Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs ~init:0
          ~f:(fun a _ -> a + 1)
          ~merge:( + ) ())
    0 sizes

let checker t =
  let seq = Mo_par.Pool.create ~jobs:1 () in
  let runs =
    sp "enumerate.walk" (fun () -> count_walk ~pool:seq Modelcheck.deep_sizes)
  in
  expect t "deep walk size" (runs = 940_304);
  let v, universe_words =
    words (fun () ->
        sp "modelcheck.verify" (fun () ->
            Modelcheck.verify ~pool:seq ~sizes:Modelcheck.deep_sizes ()))
  in
  expect t "deep verdict"
    (Modelcheck.ok v && v.Modelcheck.counts.Modelcheck.sync = 418_136);
  let orbits =
    sp "enumerate.sym_walk" (fun () ->
        List.fold_left
          (fun acc (nprocs, nmsgs) ->
            acc
            + Mo_order.Enumerate.fold_abstracts_sym_par ~pool:seq ~nprocs ~nmsgs
                ~init:0
                ~f:(fun a ~mult:_ _ -> a + 1)
                ~merge:( + ) ())
          0 Modelcheck.vast_sizes)
  in
  let vv, vast_words =
    words (fun () ->
        Modelcheck.verify ~pool:seq ~sym:true ~sizes:Modelcheck.vast_sizes ())
  in
  expect t "vast verdict"
    (Modelcheck.ok vv && vv.Modelcheck.counts.Modelcheck.runs = 77_830_564);
  (* per-run costs over the 125,768-run universe *)
  let abstracts =
    List.concat_map
      (fun (nprocs, nmsgs) ->
        Mo_order.Enumerate.fold_abstracts_par ~pool:seq ~nprocs ~nmsgs ~init:[]
          ~f:(fun acc a -> a :: acc)
          ~merge:(fun a b -> List.rev_append b a)
          ())
      Modelcheck.universe_sizes
  in
  let causal = Parse.predicate_exn "x.s < y.s & y.r < x.r" in
  let compiled = Eval.compile causal in
  let holds =
    sp "eval.holds" (fun () ->
        List.fold_left
          (fun n a -> if Eval.holds_c compiled a then n + 1 else n)
          0 abstracts)
  in
  expect t "causal runs" (List.length abstracts - holds = 63_364);
  let points = Mo_order.Lattice.points () in
  let member =
    sp "lattice.is_member" (fun () ->
        List.fold_left
          (fun n m ->
            List.fold_left
              (fun n a -> if Mo_order.Lattice.is_member m a then n + 1 else n)
              n abstracts)
          0 points)
  in
  ignore member;
  let _, lattice_words =
    words (fun () ->
        Modelcheck.placement ~pool:seq ~sizes:Modelcheck.universe_sizes causal)
  in
  let ops =
    (Mo_workload.Gen.uniform ~nprocs:2 ~nmsgs:6 ~seed:42).Mo_workload.Gen.ops
  in
  let explored, explore_words =
    words (fun () ->
        sp "explore.walk" (fun () ->
            Mo_protocol.Explore.distinct_user_views_par ~pool:seq
              ~max_executions:250_000 ~nprocs:2 Mo_protocol.Fifo.factory ops))
  in
  let executions =
    match explored with
    | Ok (views, stats) ->
        expect t "explore views" (List.length views = 175);
        stats.Mo_protocol.Explore.executions
    | Error _ -> 0
  in
  expect t "explore executions" (executions = 207_900);
  let n = float_of_int (List.length abstracts) in
  [
    ("enumerate.walk_s", (ms "enumerate.walk", "s"));
    ( "modelcheck.self_s",
      (ms "modelcheck.verify" -. ms "enumerate.walk", "s") );
    ("eval.holds_ns", (ms "eval.holds" /. n *. 1e9, "ns"));
    ("enumerate.sym_walk_s", (ms "enumerate.sym_walk", "s"));
    ("enumerate.orbits", (float_of_int orbits, "count"));
    ( "lattice.is_member_ns",
      (ms "lattice.is_member" /. (n *. float_of_int (List.length points)) *. 1e9,
       "ns") );
    ("explore.walk_s", (ms "explore.walk", "s"));
    ("explore.executions", (float_of_int executions, "count"));
    ("gc.minor_words.universe", (universe_words, "words"));
    ("gc.minor_words.vast", (vast_words, "words"));
    ("gc.minor_words.lattice", (lattice_words, "words"));
    ("gc.minor_words.explore", (explore_words, "words"));
  ]

(* ---- the monitors (monitor inputs) --------------------------------- *)

let monitors t ~seed =
  let pred = Mon.compiled () in
  let inputs = sp "stream.generate" (fun () -> Mon.generate ~seed) in
  let events = Mon.events_of inputs.Mon.packed + Mon.events_of inputs.Mon.wide in
  let seq_pass name ~window streams =
    let reports, w =
      words (fun () ->
          sp name (fun () ->
              Array.mapi (fun key evs -> Mon.monitor_key ~pred ~window evs key) streams))
    in
    (reports, w /. float_of_int (Mon.events_of streams))
  in
  let packed, packed_words =
    seq_pass "pmon.packed" ~window:Mon.packed_window inputs.Mon.packed
  in
  let _wide, _ = seq_pass "pmon.wide" ~window:Mon.wide_window inputs.Mon.wide in
  expect t "monitor violations" (Mo_workload.Stream.violations packed > 0);
  (* shard skew: busy time per domain over one sharded packed pass *)
  let pool = Mo_par.Pool.create () in
  let per_key =
    Mo_par.Pool.map pool (Array.length inputs.Mon.packed) ~f:(fun key ->
        let t0 = Common.now () in
        ignore
          (Mon.monitor_key ~pred ~window:Mon.packed_window
             inputs.Mon.packed.(key) key);
        ((Domain.self () :> int), Common.now () -. t0))
  in
  let busy = Hashtbl.create 4 in
  Array.iter
    (fun (d, w) ->
      Hashtbl.replace busy d (w +. Option.value ~default:0. (Hashtbl.find_opt busy d)))
    per_key;
  let loads = Hashtbl.fold (fun _ w acc -> w :: acc) busy [] in
  let mean = List.fold_left ( +. ) 0. loads /. float_of_int (List.length loads) in
  let per_event name streams =
    ms name /. float_of_int (Mon.events_of streams) *. 1e9
  in
  [
    ("pmon.ns_per_event", (per_event "pmon.packed" inputs.Mon.packed, "ns"));
    ("pmon.wide_ns_per_event", (per_event "pmon.wide" inputs.Mon.wide, "ns"));
    ( "monitor.frontier_bytes",
      (float_of_int packed.(0).Mo_workload.Stream.frontier_bytes, "bytes") );
    ("par.shard_skew", (List.fold_left Float.max 0. loads /. mean, "x"));
    ( "stream.gen_ns_per_event",
      (ms "stream.generate" /. float_of_int events *. 1e9, "ns") );
    ("gc.minor_words_per_event", (packed_words, "words"));
  ]

let run ~workload ~seed ~mopcd =
  let t = { checks = 0; bad = 0 } in
  let mode = if workload = "svc-cold" then Svc.Cold else Svc.Hot in
  (* the pool first: spawning domains costs more once the heap is big *)
  let pool = pool_layer () in
  let metrics =
    service t ~mode ~seed ~mopcd
    @ compute_layers t ~seed
    @ pool
    @ checker t
    @ monitors t ~seed
  in
  (try Unix.mkdir ".bench_build/out" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Spans.write (Printf.sprintf ".bench_build/out/spans-%s-%d.tsv" workload seed);
  {
    Common.attempted = t.checks;
    failed = t.bad;
    correct = t.bad = 0;
    metrics;
    detail = [];
  }
