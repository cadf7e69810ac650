type pending_group = {
  local_seq : int;
  mutable copies : Protocol.intent list; (* collected until granted *)
}

type state = {
  me : int;
  (* origin side *)
  mutable next_local_seq : int;
  mutable current_group : int option; (* workload group of the open batch *)
  mutable granted_open : int option;
      (* ticket of the open batch once granted: a grant can arrive
         between two copies of one broadcast *)
  mutable pending : pending_group list; (* awaiting grant, FIFO *)
  mutable own_tickets : int list; (* tickets of my own broadcasts *)
  (* receiver side *)
  buffer : (int, int) Hashtbl.t; (* ticket -> msg id *)
  mutable next_expected : int;
  (* sequencer side (process 0 only) *)
  mutable next_ticket : int;
}

let sequencer = 0

let ctl kind data = { Message.kind; data }

let make ~nprocs:_ ~me =
  let st =
    {
      me;
      next_local_seq = 0;
      current_group = None;
      granted_open = None;
      pending = [];
      own_tickets = [];
      buffer = Hashtbl.create 32;
      next_expected = 0;
      next_ticket = 0;
    }
  in
  let rec drain acc =
    if List.mem st.next_expected st.own_tickets then begin
      st.next_expected <- st.next_expected + 1;
      drain acc
    end
    else
      match Hashtbl.find_opt st.buffer st.next_expected with
      | Some id ->
          Hashtbl.remove st.buffer st.next_expected;
          st.next_expected <- st.next_expected + 1;
          drain (Protocol.Deliver id :: acc)
      | None -> List.rev acc
  in
  let send_copy t (i : Protocol.intent) =
    Protocol.Send_user
      {
        Message.id = i.id;
        src = st.me;
        dst = i.dst;
        color = i.color;
        payload = i.payload;
        tag = Message.Ticket t;
      }
  in
  {
    Protocol.on_invoke =
      (fun ~now:_ (intent : Protocol.intent) ->
        (* copies of one broadcast arrive consecutively; open a batch on
           the first copy. Requests are serialized — at most one
           outstanding per origin — so that same-origin tickets respect
           program order (two in-flight requests could be reordered by the
           network and invert causality). *)
        if st.current_group <> intent.group then begin
          st.current_group <- intent.group;
          st.granted_open <- None;
          let local_seq = st.next_local_seq in
          st.next_local_seq <- local_seq + 1;
          st.pending <- st.pending @ [ { local_seq; copies = [ intent ] } ];
          if List.length st.pending = 1 then
            [
              Protocol.Send_control
                { dst = sequencer; ctl = ctl "toreq" [| st.me; local_seq |] };
            ]
          else [] (* queued; requested when the head is granted *)
        end
        else
          match st.granted_open with
          | Some t -> [ send_copy t intent ]
          | None ->
              (match List.rev st.pending with
              | last :: _ -> last.copies <- intent :: last.copies
              | [] -> invalid_arg "Total_order: copy without an open batch");
              []);
    on_packet =
      (fun ~now:_ ~from packet ->
        match packet with
        | Message.User { id; tag = Message.Ticket t; _ } ->
            ignore from;
            Hashtbl.replace st.buffer t id;
            drain []
        | Message.User _ ->
            invalid_arg "Total_order: user message without ticket"
        | Message.Control { kind = "toreq"; data } ->
            let origin = data.(0) and local_seq = data.(1) in
            let t = st.next_ticket in
            st.next_ticket <- t + 1;
            [
              Protocol.Send_control
                { dst = origin; ctl = ctl "togrant" [| t; local_seq |] };
            ]
        | Message.Control { kind = "togrant"; data } -> (
            let t = data.(0) and local_seq = data.(1) in
            match st.pending with
            | pg :: rest when pg.local_seq = local_seq ->
                st.pending <- rest;
                st.own_tickets <- t :: st.own_tickets;
                (* the open batch is always the last one queued *)
                if rest = [] then st.granted_open <- Some t;
                let sends = List.rev_map (send_copy t) pg.copies in
                let next_req =
                  match rest with
                  | next :: _ ->
                      [
                        Protocol.Send_control
                          {
                            dst = sequencer;
                            ctl = ctl "toreq" [| st.me; next.local_seq |];
                          };
                      ]
                  | [] -> []
                in
                (* sends must precede the drained deliveries in the recorded
                   sequence: a delivery unblocked by this grant would
                   otherwise appear causally before our own sends *)
                sends @ next_req @ drain []
            | _ -> invalid_arg "Total_order: grant out of order")
        | Message.Control { kind; _ } ->
            invalid_arg ("Total_order: unknown control kind " ^ kind)
        | Message.Framed _ -> []);
    on_timer = Protocol.no_timer;
    pending_depth =
      (fun () ->
        Hashtbl.length st.buffer
        + List.fold_left
            (fun acc pg -> acc + List.length pg.copies)
            0 st.pending);
  }

let factory =
  { Protocol.proto_name = "total-order"; kind = Protocol.General; make }
