(* Differential verification of the streaming predicate monitors.

   - online = offline: every concrete run of the standard-plus universe
     (125,768 runs), streamed along 3 random linear extensions, must get
     the same verdict from the compiled monitor (Pmon over the
     Monitor frontier) as the offline evaluator on the completed run;
     the per-predicate offline violation counts are pinned the way
     test_eval_fast.ml pins run counts. MO_MONITOR_DEEP=1 extends the
     pass to the deep tier with a deterministic 1/37 monitored sample.
   - earliest detection: a violation must be reported at the first
     prefix whose must-closure satisfies the predicate — compared
     against an oracle that rebuilds the must-poset of every prefix and
     reruns the offline checker on it. Neither late nor speculative.
   - sharded determinism: the per-key driver produces byte-identical
     reports at jobs 1/2/4/7 (5 seeds; nightly raises the key count via
     MO_MONITOR_DEEP).
   - bounded frontier: with retirement active (window < messages) the
     resident bytes are a constant of the window, independent of stream
     length, and a violation planted deep into a long stream is still
     caught at its exact event index. *)

open Mo_core
open Mo_order
open Mo_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let deep = Sys.getenv_opt "MO_MONITOR_DEEP" <> None

let plan_fifo = Eval.compile Catalog.fifo.Catalog.pred
let plan_b2 = Eval.compile Catalog.causal_b2.Catalog.pred
let plan_crown = Eval.compile (Catalog.sync_crown 2).Catalog.pred
let plans = [ plan_fifo; plan_b2; plan_crown ]

(* ---- the must-closure oracle ------------------------------------- *)

(* The must-poset of a stream prefix: observed events ordered by process
   order and message edges, plus one virtual delivery per pending
   message, pinned after the current last event of its destination.
   Messages are renumbered compactly in send order — the same order the
   monitor assigns slots. *)
let must_prefix run (events : Event.t list) =
  let nprocs = Run.nprocs run and nmsgs = Run.nmsgs run in
  let compact = Array.make nmsgs (-1) in
  let delivered = Array.make nmsgs false in
  let last = Array.make nprocs None in
  let sent = ref 0 in
  let edges = ref [] in
  let step (e : Event.t) p =
    let e' = { e with Event.msg = compact.(e.msg) } in
    (match last.(p) with
    | Some u -> edges := (u, e') :: !edges
    | None -> ());
    last.(p) <- Some e'
  in
  List.iter
    (fun (e : Event.t) ->
      match e.point with
      | Event.S ->
          compact.(e.msg) <- !sent;
          incr sent;
          step e (Run.msg_src run e.msg)
      | Event.R ->
          delivered.(e.msg) <- true;
          step e (Run.msg_dst run e.msg))
    events;
  for m = 0 to nmsgs - 1 do
    if compact.(m) >= 0 && not delivered.(m) then
      match last.(Run.msg_dst run m) with
      | Some u -> edges := (u, Event.deliver compact.(m)) :: !edges
      | None -> ()
  done;
  let attrs = Array.make !sent Run.no_attrs in
  for m = 0 to nmsgs - 1 do
    if compact.(m) >= 0 then
      attrs.(compact.(m)) <-
        Run.attrs_known ~src:(Run.msg_src run m) ~dst:(Run.msg_dst run m)
          ?color:(Run.msg_color run m) ()
  done;
  Run.Abstract.create_exn ~nmsgs:!sent ~attrs !edges

(* first prefix length whose must-closure satisfies the predicate *)
let oracle_first plan run events =
  let len = List.length events in
  let rec go l =
    if l > len then None
    else
      let prefix = List.filteri (fun i _ -> i < l) events in
      if Eval.holds_c plan (must_prefix run prefix) then Some l else go (l + 1)
  in
  go 0

let monitor_verdict plan run events = Pmon.feed_events (Pmon.exact plan run) run events

(* ---- differential: online = offline, earliest = oracle ----------- *)

let small_sizes = [ (2, 2); (3, 2); (2, 3) ]

let test_earliest_oracle () =
  List.iter
    (fun (nprocs, nmsgs) ->
      List.iter
        (fun r ->
          let events = Run.linearize_random r ~seed:(Hashtbl.hash (Run.linearize r)) in
          List.iter
            (fun plan ->
              let expected = oracle_first plan r events in
              let got =
                match monitor_verdict plan r events with
                | Some (v : Pmon.verdict) -> Some (v.at + 1)
                | None -> None
              in
              check_bool "verdict at the oracle's first unavoidable prefix"
                true
                (expected = got))
            plans)
        (Enumerate.all_runs ~nprocs ~nmsgs ()))
    small_sizes

let earliest_agrees r events =
  List.for_all
    (fun plan ->
      let expected = oracle_first plan r events in
      let got =
        match monitor_verdict plan r events with
        | Some (v : Pmon.verdict) -> Some (v.at + 1)
        | None -> None
      in
      expected = got)
    plans

let prop_earliest_random =
  QCheck.Test.make ~name:"oracle agreement on random runs" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r = Random_run.run ~nprocs:3 ~nmsgs:8 ~seed () in
      earliest_agrees r (Run.linearize_random r ~seed))

(* 63-70 messages, so the exact monitor's slot sets are two words: 62
   serialized messages, clean for all three predicates, then a random
   run of 1-8 more, streamed in schedule order. The tail takes slots 62
   and up, the second word of every row, and every match lies in it. *)
let prop_earliest_two_words =
  QCheck.Test.make ~name:"oracle agreement across the word boundary"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let head = 62 and tail = 1 + (seed mod 8) in
      let t = Random_run.run ~nprocs:3 ~nmsgs:tail ~seed () in
      let endpoints m = (Run.msg_src t m, Run.msg_dst t m) in
      let msgs =
        Array.init (head + tail) (fun m ->
            if m < head then (m mod 3, (m + 1) mod 3)
            else endpoints (m - head))
      in
      let events =
        List.concat_map
          (fun m -> [ Event.send m; Event.deliver m ])
          (List.init head Fun.id)
        @ List.map
            (fun (e : Event.t) -> { e with Event.msg = e.msg + head })
            (Run.linearize_random t ~seed)
      in
      let sched =
        List.map
          (fun (e : Event.t) ->
            match e.point with
            | Event.S -> Run.Do_send e.msg
            | Event.R -> Run.Do_deliver e.msg)
          events
      in
      match Run.of_schedule ~nprocs:3 ~msgs sched with
      | Ok r -> earliest_agrees r events
      | Error e -> QCheck.Test.fail_report e)

(* the full standard-plus universe, counts pinned; nightly adds the
   deep tier with a deterministic sample of monitored runs *)
let universe_sizes = Modelcheck.standard_sizes @ [ (4, 2); (4, 3); (3, 4) ]

let test_differential_universe () =
  let report =
    Modelcheck.verify_monitor ~extensions:3 ~seed:42 ~sizes:universe_sizes ()
  in
  check_bool "online = offline over the universe" true
    report.Modelcheck.m_agree;
  check_int "universe runs" 125_768 report.Modelcheck.m_runs;
  (* causal_b2 is exactly runs − causal (125,768 − 63,364): the online
     face of the Lemma 3.2 pin in test_eval_fast.ml *)
  List.iter
    (fun (name, expected) ->
      check_int name expected
        (List.assoc name report.Modelcheck.m_violations))
    [ ("fifo", 58_768); ("causal_b2", 62_404); ("crown2", 83_556) ]

let test_differential_deep () =
  if not deep then ()
  else
    let report =
      Modelcheck.verify_monitor ~extensions:2 ~seed:7 ~sample:37
        ~sizes:Modelcheck.deep_sizes ()
    in
    check_bool "online = offline over the deep tier" true
      report.Modelcheck.m_agree;
    check_int "deep runs" 940_304 report.Modelcheck.m_runs

(* ---- sharded determinism ----------------------------------------- *)

let report_repr (r : Stream.report) =
  Format.asprintf "%d:%d:%d:%s" r.Stream.key r.Stream.events
    r.Stream.frontier_bytes
    (match r.Stream.verdict with
    | None -> "-"
    | Some v ->
        Format.asprintf "%d@[%a]" v.Pmon.at
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int)
          (Array.to_list v.Pmon.witness))

let test_sharding_deterministic () =
  let nkeys = if deep then 5_000 else 1_000 in
  let seeds = if deep then [ 11; 12; 13; 14; 15; 16; 17 ] else [ 1; 2; 3; 4; 5 ] in
  let profile = { Stream.default_profile with Stream.disorder = 0.05 } in
  List.iter
    (fun seed ->
      let logs =
        List.map
          (fun jobs ->
            let pool = Mo_par.Pool.create ~jobs () in
            let reports =
              Stream.monitor_keys ~pool ~pred:plan_fifo ~profile ~nkeys
                ~seed ()
            in
            String.concat ";"
              (Array.to_list (Array.map report_repr reports)))
          [ 1; 2; 4; 7 ]
      in
      match logs with
      | base :: rest ->
          List.iteri
            (fun i log ->
              check_bool
                (Printf.sprintf "seed %d: jobs run %d = jobs 1" seed i)
                true (log = base))
            rest
      | [] -> assert false)
    seeds;
  (* the synthetic traffic actually contains violations to log *)
  let pool = Mo_par.Pool.create ~jobs:2 () in
  let reports =
    Stream.monitor_keys ~pool ~pred:plan_fifo
      ~profile:{ Stream.default_profile with Stream.disorder = 0.05 }
      ~nkeys:1_000 ~seed:1 ()
  in
  check_bool "fuzz traffic has violations" true (Stream.violations reports > 0)

(* ---- bounded window ---------------------------------------------- *)

(* a FIFO inversion planted after [pad] clean same-channel messages:
   the overtaken message is still pending when the overtaker's delivery
   arrives, so detection must fire exactly there, long after the first
   window filled and retirement began *)
let test_windowed_detection () =
  let pad = 1_000 in
  let t = Pmon.create ~window:16 ~nprocs:2 plan_fifo in
  for m = 0 to pad - 1 do
    ignore (Pmon.send t ~msg:m ~src:0 ~dst:1 ());
    ignore (Pmon.deliver t ~msg:m)
  done;
  ignore (Pmon.send t ~msg:pad ~src:0 ~dst:1 ());
  ignore (Pmon.send t ~msg:(pad + 1) ~src:0 ~dst:1 ());
  check_bool "clean so far" true (Pmon.verdict t = None);
  let v = Pmon.deliver t ~msg:(pad + 1) in
  (match v with
  | Some v ->
      (* events: 2*pad clean, two sends, then the inverted delivery *)
      check_int "detected at the inverted delivery" ((2 * pad) + 2)
        v.Pmon.at;
      check_bool "witness is the planted pair" true
        (Array.to_list v.Pmon.witness = [ pad; pad + 1 ])
  | None -> Alcotest.fail "planted violation missed");
  (* sticky verdict; stream keeps flowing *)
  ignore (Pmon.deliver t ~msg:pad);
  check_bool "verdict sticky" true (Pmon.verdict t <> None)

let test_frontier_bounded () =
  let feed nmsgs =
    let t = Pmon.create ~window:16 ~nprocs:3 plan_b2 in
    let profile =
      { Stream.default_profile with Stream.nmsgs; Stream.disorder = 0. }
    in
    List.iter
      (function
        | Stream.Send { msg; src; dst } ->
            ignore (Pmon.send t ~msg ~src ~dst ())
        | Stream.Deliver { msg } -> ignore (Pmon.deliver t ~msg))
      (Stream.key_events profile ~seed:3 ~key:0);
    let mon = Pmon.monitor t in
    check_int "all events consumed" (2 * nmsgs) (Monitor.events mon);
    Monitor.frontier_bytes mon
  in
  let short = feed 1_000 and long = feed 10_000 in
  check_int "frontier bytes independent of stream length" short long;
  check_bool "frontier is small" true (short < 10_000)

(* ---- multi-word rows against the Bitset oracle ------------------ *)

(* the monitor and the Bitset automaton it replaced (Monitor_ref) over
   one truncated-window stream: after every event the two must hold the
   identical relation (bit for bit, all eight sections) and identical
   slot state. Windows 62/63 and 124/125 sit on either side of a word
   boundary. *)
let test_wide_differential () =
  let agree w mon (r : Monitor_ref.t) =
    let rows = Monitor.rows mon and live = Monitor.live mon in
    let nw = Array.length live in
    let bits = Run.Abstract.word_bits in
    for j = 0 to w - 1 do
      let l = live.(j / bits) land (1 lsl (j mod bits)) <> 0 in
      check_bool "live slots agree" (Bitset.mem r.live j) l;
      if l then begin
        check_int "slot msg" (Monitor_ref.slot_msg r j)
          (Monitor.slot_msg mon j);
        check_bool "slot delivered" (Monitor_ref.slot_delivered r j)
          (Monitor.slot_delivered mon j)
      end
    done;
    (* each Bitset row packed into words, compared word by word *)
    let words = Array.make nw 0 in
    for k = 0 to 7 do
      for x = 0 to w - 1 do
        Array.fill words 0 nw 0;
        Bitset.iter
          (fun y ->
            words.(y / bits) <- words.(y / bits) lor (1 lsl (y mod bits)))
          r.rel.((k * w) + x);
        for i = 0 to nw - 1 do
          if rows.(x).((k * nw) + i) <> words.(i) then
            Alcotest.failf "window %d: section %d row %d word %d differs" w k
              x i
        done
      done
    done
  in
  List.iter
    (fun w ->
      let profile =
        {
          Stream.default_profile with
          Stream.nmsgs = 4 * w;
          Stream.disorder = 0.1;
        }
      in
      let nprocs = profile.Stream.nprocs in
      List.iter
        (fun seed ->
          let mon = Monitor.create ~window:w ~nprocs () in
          let r = Monitor_ref.create ~window:w ~nprocs () in
          List.iter
            (fun ev ->
              (match ev with
              | Stream.Send { msg; src; dst } ->
                  Monitor.send mon ~msg ~src ~dst ();
                  Monitor_ref.send r ~msg ~src ~dst ~color:(-1)
              | Stream.Deliver { msg } ->
                  Monitor.deliver mon ~msg;
                  Monitor_ref.deliver r ~msg);
              check_int "events agree" r.events (Monitor.events mon);
              check_int "retired agree" r.retired (Monitor.retired mon);
              check_int "pending agree" (Monitor_ref.pending r)
                (Monitor.pending mon);
              agree w mon r)
            (Stream.key_events profile ~seed ~key:0);
          check_bool "slots were recycled" true (Monitor.retired mon > 0))
        [ 1; 2; 3 ])
    [ 16; 62; 63; 124; 125; 128 ]

(* 100 messages in flight at once, then a FIFO inversion: every pending
   slot stays resident in three-word rows *)
let test_wide_window_128 () =
  let t = Pmon.create ~window:128 ~nprocs:2 plan_fifo in
  for m = 0 to 99 do
    ignore (Pmon.send t ~msg:m ~src:0 ~dst:1 ())
  done;
  check_bool "100 in flight, clean" true (Pmon.verdict t = None);
  check_int "all pending" 100 (Monitor.pending (Pmon.monitor t));
  (* deliver the newest first: overtakes all 99 older channel-mates *)
  let v = Pmon.deliver t ~msg:99 in
  (match v with
  | Some v ->
      check_int "detected at the inverted delivery" 100 v.Pmon.at;
      check_bool "witness is an overtaken pair" true
        (match List.sort compare (Array.to_list v.Pmon.witness) with
        | [ x; y ] -> x < 99 && y = 99
        | _ -> false)
  | None -> Alcotest.fail "planted violation missed");
  for m = 0 to 98 do
    ignore (Pmon.deliver t ~msg:m)
  done;
  check_int "all events consumed" 200 (Monitor.events (Pmon.monitor t))

let test_window_exhaustion () =
  let t = Monitor.create ~window:2 ~nprocs:2 () in
  Monitor.send t ~msg:0 ~src:0 ~dst:1 ();
  Monitor.send t ~msg:1 ~src:0 ~dst:1 ();
  Alcotest.check_raises "exhausted window raises"
    (Invalid_argument "Monitor.send: window exhausted (every slot pending)")
    (fun () -> Monitor.send t ~msg:2 ~src:0 ~dst:1 ());
  (* delivering frees a retirable slot *)
  Monitor.deliver t ~msg:0;
  Monitor.send t ~msg:2 ~src:0 ~dst:1 ();
  check_int "one slot recycled" 1 (Monitor.retired t)

(* slot accessors reject free and out-of-range slots instead of reading
   another slot's bit *)
let test_slot_range () =
  let t = Monitor.create ~window:128 ~nprocs:2 () in
  for m = 0 to 69 do
    Monitor.send t ~msg:m ~src:0 ~dst:1 ()
  done;
  Monitor.deliver t ~msg:65;
  check_bool "slot 65 delivered" true (Monitor.slot_delivered t 65);
  check_bool "slot 64 pending" false (Monitor.slot_delivered t 64);
  check_int "slot 65 holds message 65" 65 (Monitor.slot_msg t 65);
  List.iter
    (fun j ->
      Alcotest.check_raises
        (Printf.sprintf "slot %d" j)
        (Invalid_argument "Monitor.slot_delivered: free slot")
        (fun () -> ignore (Monitor.slot_delivered t j)))
    [ -1; 70; 127; 128; 200 ];
  Alcotest.check_raises "slot_msg on a free slot"
    (Invalid_argument "Monitor.slot_msg: free slot")
    (fun () -> ignore (Monitor.slot_msg t 70))

let () =
  Alcotest.run "monitor"
    [
      ( "differential",
        [
          Alcotest.test_case "earliest = oracle (exhaustive)" `Slow
            test_earliest_oracle;
          Alcotest.test_case "universe, counts pinned" `Slow
            test_differential_universe;
          Alcotest.test_case "deep tier (MO_MONITOR_DEEP)" `Slow
            test_differential_deep;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "jobs-independent reports" `Slow
            test_sharding_deterministic;
        ] );
      ( "window",
        [
          Alcotest.test_case "planted violation behind retirement" `Quick
            test_windowed_detection;
          Alcotest.test_case "frontier bytes bounded" `Quick
            test_frontier_bounded;
          Alcotest.test_case "exhaustion raises" `Quick
            test_window_exhaustion;
          Alcotest.test_case "wide = packed on truncated windows" `Slow
            test_wide_differential;
          Alcotest.test_case "window 128 (Bitset fallback)" `Quick
            test_wide_window_128;
          Alcotest.test_case "slot accessors reject free slots" `Quick
            test_slot_range;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_earliest_random; prop_earliest_two_words ] );
    ]
