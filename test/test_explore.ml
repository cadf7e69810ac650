open Mo_core
open Mo_order
open Mo_protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let two_same_channel =
  [ Sim.op ~at:0 ~src:0 ~dst:1 (); Sim.op ~at:1 ~src:0 ~dst:1 () ]

let crossing =
  [ Sim.op ~at:0 ~src:0 ~dst:1 (); Sim.op ~at:0 ~src:1 ~dst:0 () ]

let three_msgs =
  [
    Sim.op ~at:0 ~src:0 ~dst:1 ();
    Sim.op ~at:0 ~src:1 ~dst:2 ();
    Sim.op ~at:1 ~src:0 ~dst:2 ();
  ]

let test_tagless_reaches_everything () =
  (* under every schedule, the do-nothing protocol produces exactly the
     delivery orderings the trivial enabled-set oracle reaches: both
     receiver orderings of the same-channel pair (the sender's order is
     pinned by the application's invoke order) *)
  match Explore.distinct_user_views ~nprocs:2 Tagless.factory two_same_channel with
  | Error e -> Alcotest.fail e
  | Ok runs ->
      check_int "two delivery orders" 2 (List.length runs);
      check_bool "one of them violates FIFO" true
        (List.exists
           (fun r ->
             not (Eval.satisfies Catalog.fifo.Catalog.pred (Run.to_abstract r)))
           runs)

let test_fifo_exhaustively_safe () =
  (* across every schedule, fifo delivers in order: a single user view *)
  match Explore.distinct_user_views ~nprocs:2 Fifo.factory two_same_channel with
  | Error e -> Alcotest.fail e
  | Ok runs ->
      check_int "one user view" 1 (List.length runs);
      List.iter
        (fun r ->
          check_bool "fifo holds" true
            (Eval.satisfies Catalog.fifo.Catalog.pred (Run.to_abstract r)))
        runs

let exhaustively_satisfies ?(allow_truncation = false) factory ops ~nprocs
    ~prop ~name =
  let all_ok = ref true and count = ref 0 in
  (match
     Explore.explore ~nprocs factory ops ~on_outcome:(fun o ->
         incr count;
         if not o.Explore.all_delivered then all_ok := false;
         match o.Explore.run with
         | Some r -> if not (prop r) then all_ok := false
         | None -> all_ok := false)
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool (name ^ " explored something") true (s.Explore.executions > 0);
      if not allow_truncation then
        check_bool (name ^ " not truncated") false s.Explore.truncated);
  check_bool (name ^ " all executions safe and live") true !all_ok;
  !count

let test_rst_exhaustively_causal () =
  let prop r = Limits.is_causal (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies Causal_rst.factory three_msgs ~nprocs:3 ~prop
       ~name:"rst");
  ignore
    (exhaustively_satisfies Causal_rst.factory crossing ~nprocs:2 ~prop
       ~name:"rst-crossing")

let test_ses_exhaustively_causal () =
  let prop r = Limits.is_causal (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies Causal_ses.factory three_msgs ~nprocs:3 ~prop
       ~name:"ses");
  ignore
    (exhaustively_satisfies Causal_ses.factory crossing ~nprocs:2 ~prop
       ~name:"ses-crossing");
  ignore
    (exhaustively_satisfies Causal_ses.factory two_same_channel ~nprocs:2
       ~prop ~name:"ses-channel")

let test_sync_token_exhaustively_sync () =
  let prop r = Limits.is_sync (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies Sync_token.factory crossing ~nprocs:2 ~prop
       ~name:"sync-token")

let test_sync_priority_exhaustively_sync () =
  (* the subtle one: every schedule of the symmetric duel and of a
     three-message pattern must be logically synchronous *)
  let prop r = Limits.is_sync (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies Sync_priority.factory crossing ~nprocs:2 ~prop
       ~name:"sync-priority duel");
  (* the 3-message space blows past the cap (yield/cancel rounds multiply
     schedules): a bounded-exhaustive check of the first 200k schedules *)
  ignore
    (exhaustively_satisfies ~allow_truncation:true Sync_priority.factory
       three_msgs ~nprocs:3 ~prop ~name:"sync-priority 3msg")

let test_flush_exhaustively () =
  let ops =
    [
      Sim.op ~at:0 ~src:0 ~dst:1 ();
      Sim.op ~flush:Message.Forward ~color:1 ~at:1 ~src:0 ~dst:1 ();
    ]
  in
  let spec = Catalog.local_forward_flush.Catalog.pred in
  let prop r = Eval.satisfies spec (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies Flush.factory ops ~nprocs:2 ~prop ~name:"flush")

let test_kweaker_window_exhaustively () =
  (* three same-channel messages, window k=1: under every schedule, no
     message overtakes a predecessor at distance >= 2 *)
  let ops =
    [
      Sim.op ~at:0 ~src:0 ~dst:1 ();
      Sim.op ~at:1 ~src:0 ~dst:1 ();
      Sim.op ~at:2 ~src:0 ~dst:1 ();
    ]
  in
  let kw1 =
    let open Term in
    Forbidden.make ~nvars:3
      ~guards:
        [ Same_src (0, 1); Same_dst (0, 1); Same_src (1, 2); Same_dst (1, 2) ]
      [ s 0 @> s 1; s 1 @> s 2; r 2 @> r 0 ]
  in
  let prop r = Eval.satisfies kw1 (Run.to_abstract r) in
  ignore
    (exhaustively_satisfies (Kweaker.window 1) ops ~nprocs:2 ~prop
       ~name:"kw-window-1");
  (* and the window is genuinely used: more than one distinct view *)
  match Explore.distinct_user_views ~nprocs:2 (Kweaker.window 1) ops with
  | Ok views -> check_bool "window allows reordering" true (List.length views > 1)
  | Error e -> Alcotest.fail e

let test_selective_flush_exhaustively () =
  (* ordinary, marker(forward), ordinary: under every schedule the marker
     never precedes the first message, while the third may overtake *)
  let ops =
    [
      Sim.op ~at:0 ~src:0 ~dst:1 ();
      Sim.op ~color:1 ~at:1 ~src:0 ~dst:1 ();
      Sim.op ~at:2 ~src:0 ~dst:1 ();
    ]
  in
  let prop r =
    Eval.satisfies Catalog.local_forward_flush.Catalog.pred
      (Run.to_abstract r)
  in
  ignore
    (exhaustively_satisfies
       (Flush.selective_forward ~color:1)
       ops ~nprocs:2 ~prop ~name:"selective-forward");
  match
    Explore.distinct_user_views ~nprocs:2 (Flush.selective_forward ~color:1) ops
  with
  | Ok views ->
      check_bool "uncolored traffic still reorders" true
        (List.length views > 1)
  | Error e -> Alcotest.fail e

(* engine cross-validation: every run the time-based simulator produces
   (any seed) appears among the explorer's reachable views — sampling is
   a subset of exhaustion *)
let test_sim_subset_of_explore () =
  let key r =
    String.concat "|"
      (List.init (Run.nprocs r) (fun p ->
           String.concat ","
             (List.map
                (fun e -> string_of_int (Event.encode e))
                (Run.sequence r p))))
  in
  List.iter
    (fun (factory, ops, nprocs) ->
      let views =
        match Explore.distinct_user_views ~nprocs factory ops with
        | Ok vs -> List.map key vs
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun seed ->
          let cfg =
            { (Sim.default_config ~nprocs) with Sim.seed; jitter = 20 }
          in
          match Sim.execute cfg factory ops with
          | Ok { Sim.run = Some r; _ } ->
              check_bool
                (Printf.sprintf "%s seed %d view reachable"
                   factory.Protocol.proto_name seed)
                true
                (List.mem (key r) views)
          | Ok _ -> Alcotest.fail "not live"
          | Error e -> Alcotest.fail e)
        (List.init 20 Fun.id))
    [
      (Tagless.factory, crossing, 2);
      (Fifo.factory, two_same_channel, 2);
      (Causal_rst.factory, three_msgs, 3);
      (Sync_token.factory, crossing, 2);
    ]

let test_truncation () =
  match
    Explore.explore ~max_executions:3 ~nprocs:3 Tagless.factory three_msgs
      ~on_outcome:(fun _ -> ())
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "truncated" true s.Explore.truncated;
      check_int "stopped at cap" 3 s.Explore.executions

let test_misbehaviour_detected () =
  let bad =
    {
      Protocol.proto_name = "bad";
      kind = Protocol.General;
      make =
        (fun ~nprocs:_ ~me ->
          {
            Protocol.on_invoke =
              (fun ~now:_ (i : Protocol.intent) ->
                [
                  Protocol.Send_user
                    {
                      Message.id = i.id;
                      src = me;
                      dst = i.dst;
                      color = None;
                      payload = 0;
                      tag = Message.No_tag;
                    };
                ]);
            on_packet =
              (fun ~now:_ ~from:_ -> function
                | Message.User u ->
                    [
                    Protocol.Deliver u.Message.id; Protocol.Deliver u.Message.id;
                  ]
                | Message.Control _ | Message.Framed _ -> []);
            on_timer = Protocol.no_timer;
            pending_depth = (fun () -> 0);
          });
    }
  in
  match
    Explore.explore ~nprocs:2 bad two_same_channel ~on_outcome:(fun _ -> ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double delivery not detected"

(* cross-validation: the tagless implementation's reachable user views on
   the crossing pair equal the trivial oracle's (Inhibit.enable_all) *)
let test_matches_inhibit_oracle () =
  let impl =
    match Explore.distinct_user_views ~nprocs:2 Tagless.factory crossing with
    | Ok runs -> runs
    | Error e -> Alcotest.fail e
  in
  let oracle =
    Inhibit.complete_runs ~nprocs:2 ~msgs:[| (0, 1); (1, 0) |]
      Inhibit.enable_all
  in
  let key r =
    String.concat "|"
      (List.init (Run.nprocs r) (fun p ->
           String.concat ","
             (List.map
                (fun e -> string_of_int (Event.encode e))
                (Run.sequence r p))))
  in
  Alcotest.(check (list string))
    "same reachable views"
    (List.sort compare (List.map key oracle))
    (List.sort compare (List.map key impl))

(* ------------------------------------------------------------------ *)
(* Differential: the in-place walk against the replay-from-root DFS     *)

(* what a consumer can observe of one outcome *)
let fingerprint (o : Explore.outcome) =
  ( Option.map Explore.view_key o.Explore.run,
    o.Explore.all_delivered,
    o.Explore.control_packets )

(* a protocol that raises is reported like a misbehaviour: both walks
   must raise the same exception after the same outcomes *)
let catching f = try f () with e -> Error ("raised " ^ Printexc.to_string e)

(* the outcome sequence in order, plus [executions] and [truncated] or
   the misbehaviour message *)
let observe explore =
  let seen = ref [] in
  let result =
    catching (fun () ->
        explore ~on_outcome:(fun o -> seen := fingerprint o :: !seen)
        |> Result.map (fun (s : Explore.stats) ->
               (s.Explore.executions, s.Explore.truncated)))
  in
  (List.rev !seen, result)

(* the first-wins distinct views of an outcome sequence *)
let first_wins outcomes =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (function
      | Some k, _, _ when not (Hashtbl.mem seen k) ->
          Hashtbl.replace seen k ();
          Some k
      | _ -> None)
    outcomes

(* delivers on arrival, except that a message arriving after a later one
   from the same sender is delivered twice: it misbehaves only under some
   schedules, after others have completed *)
let overtake_broken =
  {
    Protocol.proto_name = "overtake-broken";
    kind = Protocol.General;
    make =
      (fun ~nprocs ~me ->
        let last = Array.make nprocs (-1) in
        {
          Protocol.on_invoke =
            (fun ~now:_ (i : Protocol.intent) ->
              [
                Protocol.Send_user
                  {
                    Message.id = i.Protocol.id;
                    src = me;
                    dst = i.Protocol.dst;
                    color = None;
                    payload = 0;
                    tag = Message.No_tag;
                  };
              ]);
          on_packet =
            (fun ~now:_ ~from -> function
              | Message.User u when u.Message.id < last.(from) ->
                  let id = u.Message.id in
                  [ Protocol.Deliver id; Protocol.Deliver id ]
              | Message.User u ->
                  last.(from) <- u.Message.id;
                  [ Protocol.Deliver u.Message.id ]
              | Message.Control _ | Message.Framed _ -> []);
          on_timer = Protocol.no_timer;
          pending_depth = (fun () -> 0);
        });
  }

(* every protocol `mopc explore` lists, the reliability wrapper (the
   timer path) and a broken protocol *)
let differential_protocols =
  [
    ("tagless", Tagless.factory);
    ("fifo", Fifo.factory);
    ("rst", Causal_rst.factory);
    ("ses", Causal_ses.factory);
    ("bss", Causal_bss.factory);
    ("sync", Sync_token.factory);
    ("sync-priority", Sync_priority.factory);
    ("flush", Flush.factory);
    ("to", Total_order.factory);
    ("reliable fifo", Wrap.reliable Fifo.factory);
    ("overtake-broken", overtake_broken);
  ]

let differential_workloads =
  let open Mo_workload in
  [
    ("2x3", 2, (Gen.uniform ~nprocs:2 ~nmsgs:3 ~seed:42).Gen.ops);
    ("3x3", 3, (Gen.uniform ~nprocs:3 ~nmsgs:3 ~seed:42).Gen.ops);
    ("broadcast", 3, (Gen.broadcast ~nprocs:3 ~nbcasts:2 ~seed:42).Gen.ops);
  ]

let differential_budget = 3_000

let check_against_ref ~label ~max_executions ~nprocs factory ops =
  let ((ref_outcomes, ref_result) as expected) =
    observe (Explore_ref.explore ~max_executions ~nprocs factory ops)
  in
  let same what a b = check_bool (label ^ ": " ^ what) true (a = b) in
  same "explore outcomes and result" expected
    (observe (Explore.explore ~max_executions ~nprocs factory ops));
  let ref_views = first_wins ref_outcomes in
  (match ref_result with
  | Ok (_, false) ->
      same "distinct_user_views" (Ok ref_views)
        (Explore.distinct_user_views ~max_executions ~nprocs factory ops
        |> Result.map (List.map Explore.view_key))
  | Ok (_, true) | Error _ -> ());
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "%s at %d jobs" label jobs in
      let same what a b = check_bool (label ^ ": " ^ what) true (a = b) in
      let pool = Mo_par.Pool.create ~jobs () in
      let par =
        catching (fun () ->
            Explore.explore_par ~pool ~max_executions ~nprocs factory ops
              ~init:[]
              ~f:(fun acc o -> fingerprint o :: acc)
              ~merge:(fun a b -> b @ a) ())
      in
      let views =
        catching (fun () ->
            Explore.distinct_user_views_par ~pool ~max_executions ~nprocs
              factory ops)
      in
      match ref_result with
      | Error e ->
          same "misbehaviour" (Error e) (Result.map (fun _ -> ()) par);
          same "views misbehaviour" (Error e) (Result.map (fun _ -> ()) views)
      | Ok (executions, truncated) -> (
          let result (s : Explore.stats) =
            (s.Explore.executions, s.Explore.truncated)
          in
          match (par, views) with
          | Ok (acc, stats), Ok (vs, vstats) ->
              same "explore_par result" (executions, truncated) (result stats);
              same "views result" (executions, truncated) (result vstats);
              (* which outcomes survive a truncation may vary with jobs *)
              if jobs = 1 || not truncated then begin
                same "explore_par outcomes" ref_outcomes (List.rev acc);
                same "distinct_user_views_par"
                  (first_wins ref_outcomes)
                  (List.map Explore.view_key vs)
              end
          | Error e, _ | _, Error e ->
              Alcotest.failf "%s: unexpected misbehaviour %s" label e))
    [ 1; 2; 4 ]

let test_differential_vs_ref () =
  List.iter
    (fun (pname, factory) ->
      List.iter
        (fun (wname, nprocs, ops) ->
          check_against_ref
            ~label:(pname ^ " on " ^ wname)
            ~max_executions:differential_budget ~nprocs factory ops)
        differential_workloads)
    differential_protocols

let test_differential_exact_budget () =
  (* a search that ends exactly at its budget is complete; one execution
     less is truncated *)
  List.iter
    (fun (pname, factory, ops) ->
      let nprocs = 2 in
      let executions =
        match Explore_ref.explore ~nprocs factory ops ~on_outcome:ignore with
        | Ok s -> s.Explore.executions
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun max_executions ->
          check_against_ref
            ~label:(Printf.sprintf "%s, budget %d" pname max_executions)
            ~max_executions ~nprocs factory ops)
        [ executions; executions - 1 ])
    [
      ("fifo", Fifo.factory, two_same_channel @ crossing);
      ("sync", Sync_token.factory, crossing);
      ("reliable fifo", Wrap.reliable Fifo.factory, two_same_channel);
    ]

(* the benchmark's explore workload: fifo, 2 processes, 6 messages *)
let fifo_2x6 =
  (Mo_workload.Gen.uniform ~nprocs:2 ~nmsgs:6 ~seed:42).Mo_workload.Gen.ops

let test_work_counters () =
  (* one replay per execution and one Run per distinct view *)
  match
    Explore.distinct_user_views_par ~pool:(Mo_par.Pool.create ~jobs:1 ())
      ~max_executions:207_900 ~nprocs:2 Fifo.factory fifo_2x6
  with
  | Error e -> Alcotest.fail e
  | Ok (views, s) ->
      check_int "views" 175 (List.length views);
      check_int "executions" 207_900 s.Explore.executions;
      check_bool "not truncated" false s.Explore.truncated;
      check_int "replays" 207_900 s.Explore.replays;
      check_int "runs built" 175 s.Explore.runs_built

let test_exact_budget_fifo_2x6 () =
  List.iter
    (fun jobs ->
      List.iter
        (fun (max_executions, truncated) ->
          match
            Explore.distinct_user_views_par
              ~pool:(Mo_par.Pool.create ~jobs ())
              ~max_executions ~nprocs:2 Fifo.factory fifo_2x6
          with
          | Error e -> Alcotest.fail e
          | Ok (_, s) ->
              let label =
                Printf.sprintf "--max %d at %d jobs" max_executions jobs
              in
              check_int (label ^ ": executions") max_executions
                s.Explore.executions;
              check_bool (label ^ ": truncated") truncated s.Explore.truncated)
        [ (207_900, false); (207_899, true) ])
    [ 1; 2 ]

(* A sequencer grant can arrive between two copies of one broadcast: the
   late copy goes out at once with the granted ticket. `mopc explore -p to
   -w broadcast -n 3 -m M` workloads, explored to completion; message ids
   are dense per op, so a broadcast's nprocs - 1 copies share id / 2. *)
let test_total_order_broadcast () =
  let grouping = { Broadcast_props.group_of = (fun id -> id / 2) } in
  List.iter
    (fun m ->
      let ops =
        (Mo_workload.Gen.broadcast ~nprocs:3 ~nbcasts:(max 1 (m / 2))
           ~seed:42)
          .Mo_workload.Gen.ops
      in
      let n =
        exhaustively_satisfies Total_order.factory ops ~nprocs:3
          ~prop:(fun r -> Broadcast_props.total_order r grouping)
          ~name:(Printf.sprintf "total-order broadcast -m %d" m)
      in
      check_bool (Printf.sprintf "-m %d: explored" m) true (n > 0))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "explore"
    [
      ( "unit",
        [
          Alcotest.test_case "tagless reaches everything" `Quick
            test_tagless_reaches_everything;
          Alcotest.test_case "fifo exhaustively safe" `Quick
            test_fifo_exhaustively_safe;
          Alcotest.test_case "rst exhaustively causal" `Slow
            test_rst_exhaustively_causal;
          Alcotest.test_case "ses exhaustively causal" `Slow
            test_ses_exhaustively_causal;
          Alcotest.test_case "sync-token exhaustively sync" `Slow
            test_sync_token_exhaustively_sync;
          Alcotest.test_case "sync-priority exhaustively sync" `Slow
            test_sync_priority_exhaustively_sync;
          Alcotest.test_case "flush exhaustively" `Quick
            test_flush_exhaustively;
          Alcotest.test_case "kweaker window exhaustively" `Quick
            test_kweaker_window_exhaustively;
          Alcotest.test_case "selective flush exhaustively" `Quick
            test_selective_flush_exhaustively;
          Alcotest.test_case "sim subset of explore" `Quick
            test_sim_subset_of_explore;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "misbehaviour detected" `Quick
            test_misbehaviour_detected;
          Alcotest.test_case "matches inhibit oracle" `Quick
            test_matches_inhibit_oracle;
          Alcotest.test_case "total order: grant between broadcast copies"
            `Quick test_total_order_broadcast;
        ] );
      ( "walk",
        [
          Alcotest.test_case "differential vs replay-from-root DFS" `Quick
            test_differential_vs_ref;
          Alcotest.test_case "differential at an exact budget" `Quick
            test_differential_exact_budget;
          Alcotest.test_case "work counters on fifo 2x6" `Quick
            test_work_counters;
          Alcotest.test_case "exact budget on fifo 2x6" `Quick
            test_exact_budget_fifo_2x6;
        ] );
    ]
