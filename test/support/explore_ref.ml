(* Mo_protocol.Explore.explore as the replay-from-root DFS: every node of
   the schedule tree replays the protocol from scratch along its choice
   list and either completes an execution or reports how many events are
   pending, and the search recurses on each child's [choices @ [i]]. It
   visits the executions in the same depth-first order as the shipped
   in-place walk, with one replay per tree node instead of one per
   execution, and builds a [Run] for every live outcome. It is the
   differential oracle for that walk; the only change from the walk it
   replaced is that a search ending with exactly [max_executions]
   executions is not reported as truncated. *)

open Mo_order
open Mo_protocol

type pending =
  | P_invoke of { proc : int; intent : Protocol.intent }
  | P_arrive of { dst : int; from : int; packet : Message.packet }
  | P_timer of { proc : int; key : int }

(* replay one execution following [choices]; at the first unconsumed choice
   point return how many alternatives there are *)
type step_result =
  | Done of Explore.outcome
  | Branch of int (* pending-event count at the unconsumed choice point *)
  | Misbehaviour of string

let expand ~nprocs ops =
  (* reuse the simulator's broadcast expansion by time-then-index order;
     per-process invoke order = op order *)
  let intents = ref [] in
  let next_id = ref 0 in
  List.iteri
    (fun group (op : Sim.op) ->
      let mk dst =
        let id = !next_id in
        incr next_id;
        {
          Protocol.id;
          dst;
          color = op.Sim.color;
          payload = op.Sim.payload;
          group = Some group;
          flush = op.Sim.flush;
        }
      in
      match op.Sim.dst with
      | Sim.Unicast d -> intents := (op.Sim.src, mk d) :: !intents
      | Sim.Broadcast ->
          for d = 0 to nprocs - 1 do
            if d <> op.Sim.src then intents := (op.Sim.src, mk d) :: !intents
          done)
    ops;
  List.rev !intents

let replay ~runs_built ~nprocs factory intents choices =
  let nmsgs = List.length intents in
  let msgs = Array.make nmsgs (0, 0) in
  let colors = Array.make nmsgs None in
  List.iter
    (fun (src, (i : Protocol.intent)) ->
      msgs.(i.Protocol.id) <- (src, i.Protocol.dst);
      colors.(i.Protocol.id) <- i.Protocol.color)
    intents;
  let instances =
    Array.init nprocs (fun me -> factory.Protocol.make ~nprocs ~me)
  in
  (* per-process invoke queues, fixed order *)
  let invokes = Array.make nprocs [] in
  List.iter
    (fun (src, i) -> invokes.(src) <- invokes.(src) @ [ i ])
    intents;
  let arrivals = ref [] in
  (* in-flight packets, stable order *)
  let timers = ref [] in
  (* armed timers; the explorer is untimed, so a timer may fire only once
     every packet in flight has been consumed (quiescence) — a sound
     schedule, and the one that keeps retransmission layers terminating:
     by quiescence every ack has arrived, so the timer is a no-op *)
  let seq_rev = Array.make nprocs [] in
  let record p e = seq_rev.(p) <- e :: seq_rev.(p) in
  let sent = Array.make nmsgs false
  and received = Array.make nmsgs false
  and delivered = Array.make nmsgs false in
  let control_packets = ref 0 in
  let error = ref None in
  let fail s = if !error = None then error := Some s in
  let apply_actions p actions =
    List.iter
      (fun (a : Protocol.action) ->
        match a with
        | Protocol.Send_user u ->
            if u.Message.src <> p then fail "user message with wrong src"
            else if u.Message.id < 0 || u.Message.id >= nmsgs then
              fail "unknown message id"
            else if sent.(u.Message.id) then fail "message sent twice"
            else begin
              sent.(u.Message.id) <- true;
              record p { Event.Sys.msg = u.Message.id; kind = Event.Sys.Send };
              arrivals :=
                !arrivals
                @ [
                    P_arrive
                      { dst = u.Message.dst; from = p; packet = Message.User u };
                  ]
            end
        | Protocol.Send_control { dst; ctl } ->
            incr control_packets;
            arrivals :=
              !arrivals
              @ [ P_arrive { dst; from = p; packet = Message.Control ctl } ]
        | Protocol.Deliver id ->
            if id < 0 || id >= nmsgs then fail "unknown delivery id"
            else if not received.(id) then fail "delivered before receive"
            else if delivered.(id) then fail "delivered twice"
            else if snd msgs.(id) <> p then fail "delivered at wrong process"
            else begin
              delivered.(id) <- true;
              record p { Event.Sys.msg = id; kind = Event.Sys.Deliver }
            end
        | Protocol.Send_framed { dst; rel; packet; retransmit } -> (
            let enqueue () =
              arrivals :=
                !arrivals
                @ [
                    P_arrive
                      {
                        dst;
                        from = p;
                        packet = Message.Framed { rel; inner = packet };
                      };
                  ]
            in
            match packet with
            | Message.Framed _ -> fail "nested framing"
            | Message.User u ->
                if u.Message.src <> p then fail "user message with wrong src"
                else if u.Message.id < 0 || u.Message.id >= nmsgs then
                  fail "unknown message id"
                else if retransmit then
                  if not sent.(u.Message.id) then
                    fail "retransmit before first send"
                  else enqueue ()
                else if sent.(u.Message.id) then fail "message sent twice"
                else begin
                  sent.(u.Message.id) <- true;
                  record p
                    { Event.Sys.msg = u.Message.id; kind = Event.Sys.Send };
                  enqueue ()
                end
            | Message.Control _ ->
                if not retransmit then incr control_packets;
                enqueue ())
        | Protocol.Set_timer { delay; key } ->
            if delay < 1 then fail "timer delay must be positive"
            else timers := !timers @ [ P_timer { proc = p; key } ])
      actions
  in
  let pending () =
    let live =
      List.filter_map
        (fun p ->
          match invokes.(p) with
          | i :: _ -> Some (P_invoke { proc = p; intent = i })
          | [] -> None)
        (List.init nprocs Fun.id)
      @ !arrivals
    in
    if live <> [] then live else !timers
  in
  let exec_event ev =
    match ev with
    | P_invoke { proc; intent } ->
        invokes.(proc) <- List.tl invokes.(proc);
        record proc
          { Event.Sys.msg = intent.Protocol.id; kind = Event.Sys.Invoke };
        apply_actions proc (instances.(proc).Protocol.on_invoke ~now:0 intent)
    | P_arrive { dst; from; packet } ->
        arrivals := List.filter (fun e -> e != ev) !arrivals;
        (match packet with
        | Message.User u | Message.Framed { inner = Message.User u; _ } ->
            if not received.(u.Message.id) then begin
              received.(u.Message.id) <- true;
              record dst
                { Event.Sys.msg = u.Message.id; kind = Event.Sys.Receive }
            end
        | Message.Control _ | Message.Framed _ -> ());
        apply_actions dst (instances.(dst).Protocol.on_packet ~now:0 ~from packet)
    | P_timer { proc; key } ->
        timers := List.filter (fun e -> e != ev) !timers;
        apply_actions proc (instances.(proc).Protocol.on_timer ~now:0 ~key)
  in
  let rec consume = function
    | [] -> (
        match (!error, pending ()) with
        | Some e, _ -> Misbehaviour e
        | None, [] ->
            let all_delivered = Array.for_all Fun.id delivered in
            let run =
              if not all_delivered then None
              else
                let user_seq =
                  Array.map
                    (fun events ->
                      List.filter_map
                        (fun (e : Event.Sys.t) ->
                          match e.kind with
                          | Event.Sys.Send -> Some (Event.send e.msg)
                          | Event.Sys.Deliver -> Some (Event.deliver e.msg)
                          | Event.Sys.Invoke | Event.Sys.Receive -> None)
                        (List.rev events))
                    seq_rev
                in
                incr runs_built;
                match Run.of_sequences ~nprocs ~msgs ~colors user_seq with
                | Ok r -> Some r
                | Error _ -> None
            in
            Done
              {
                Explore.run;
                all_delivered;
                control_packets = !control_packets;
              }
        | None, ps -> Branch (List.length ps))
    | c :: rest -> (
        match !error with
        | Some e -> Misbehaviour e
        | None -> (
            let ps = pending () in
            match List.nth_opt ps c with
            | Some ev ->
                exec_event ev;
                consume rest
            | None -> Misbehaviour "internal: stale choice"))
  in
  consume choices

let explore ?(max_executions = 200_000) ~nprocs factory ops ~on_outcome =
  let max_executions = max 0 max_executions in
  let intents = expand ~nprocs ops in
  let executions = ref 0 and replays = ref 0 and runs_built = ref 0 in
  let truncated = ref false in
  let error = ref None in
  let rec dfs choices =
    if !truncated || !error <> None then ()
    else if !executions >= max_executions then truncated := true
    else begin
      incr replays;
      match replay ~runs_built ~nprocs factory intents choices with
      | Misbehaviour e -> error := Some e
      | Done outcome ->
          incr executions;
          on_outcome outcome
      | Branch n ->
          let i = ref 0 in
          while !i < n && (not !truncated) && !error = None do
            dfs (choices @ [ !i ]);
            incr i
          done
    end
  in
  dfs [];
  match !error with
  | Some e -> Error e
  | None ->
      Ok
        {
          Explore.executions = !executions;
          truncated = !truncated;
          replays = !replays;
          runs_built = !runs_built;
        }
