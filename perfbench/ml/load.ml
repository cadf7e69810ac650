(* The closed-loop load generator for mopcd.

   One process drives [conns] Unix-domain connections from a single
   select loop. Each connection keeps one group of requests outstanding
   (one request on svc-hot, eight pipelined on svc-cold) and sends the
   next group only when every response of the last one has arrived and
   been checked. Latency runs from a request's first send to its
   verified response.

   The daemon hangs up a connection after 10,000 requests. When a send
   or read then fails (EPIPE, ECONNRESET or end of stream), the
   connection is reopened and its unanswered requests are sent again;
   they keep their first-send time. A request unanswered after
   [request_timeout] seconds, an error response or a wrong answer counts
   as failed. *)

type stats = {
  lat_us : Common.Samples.t;
  mutable ok : int;
  mutable failed : int;
  mutable reconnects : int;
  mutable resent : int;
  mutable wall : float;
  mutable busy_share : float;
}

type conn = {
  mutable c : Wire.conn;
  pending : (int * float) Queue.t;  (** request index, first-send time *)
  mutable finished : bool;
}

let request_timeout = 10.

(* [next ()] is the next group of request indices, [None] when the
   stream is exhausted; [check i payload] verifies one response. *)
let drive ~sock ~conns ~seconds ~(frames : string array) ~check ~next ?span
    () =
  let st =
    {
      lat_us = Common.Samples.create ();
      ok = 0;
      failed = 0;
      reconnects = 0;
      resent = 0;
      wall = 0.;
      busy_share = 0.;
    }
  in
  let cs =
    Array.init conns (fun _ ->
        { c = Wire.connect sock; pending = Queue.create (); finished = false })
  in
  let rec resend cn attempts =
    Wire.close cn.c;
    cn.c <- Wire.connect sock;
    st.reconnects <- st.reconnects + 1;
    if not (Queue.is_empty cn.pending) then begin
      let buf = Buffer.create 1024 in
      Queue.iter (fun (i, _) -> Buffer.add_string buf frames.(i)) cn.pending;
      st.resent <- st.resent + Queue.length cn.pending;
      try Wire.send cn.c (Buffer.contents buf)
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
      when attempts < 3 ->
        resend cn (attempts + 1)
    end
  in
  let send_group cn idxs =
    let t = Common.now () in
    let buf = Buffer.create 1024 in
    Array.iter
      (fun i ->
        Queue.add (i, t) cn.pending;
        Buffer.add_string buf frames.(i))
      idxs;
    try Wire.send cn.c (Buffer.contents buf)
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> resend cn 0
  in
  let drain cn =
    let rec go () =
      match Wire.next_frame cn.c with
      | None -> ()
      | Some payload ->
          (match Queue.take_opt cn.pending with
          | None -> st.failed <- st.failed + 1
          | Some (i, t0) ->
              if check i payload then begin
                let t1 = Common.now () in
                st.ok <- st.ok + 1;
                Common.Samples.add st.lat_us ((t1 -. t0) *. 1e6);
                Option.iter (fun name -> Spans.record name t0 t1) span
              end
              else begin
                if st.failed < 3 then
                  Printf.eprintf "pb: wrong answer to request %d: %s\n%!" i
                    payload;
                st.failed <- st.failed + 1
              end);
          go ()
    in
    go ()
  in
  let cpu0 = Common.cpu_seconds () in
  let t_start = Common.now () in
  let deadline = t_start +. seconds in
  let rec loop () =
    let t = Common.now () in
    Array.iter
      (fun cn ->
        if Queue.is_empty cn.pending && (not cn.finished) && t < deadline then
          match next () with
          | None -> cn.finished <- true
          | Some idxs -> send_group cn idxs)
      cs;
    let waiting =
      List.filter
        (fun cn -> not (Queue.is_empty cn.pending))
        (Array.to_list cs)
    in
    if waiting <> [] then begin
      let oldest =
        List.fold_left
          (fun acc cn -> min acc (snd (Queue.peek cn.pending)))
          infinity waiting
      in
      let timeout = Float.max 0. (oldest +. request_timeout -. Common.now ()) in
      let fds = List.map (fun cn -> cn.c.Wire.fd) waiting in
      let readable =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun cn ->
          if List.mem cn.c.Wire.fd readable then
            match Wire.fill cn.c with
            | true -> drain cn
            | false -> resend cn 0
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              ->
                resend cn 0)
        waiting;
      let now = Common.now () in
      List.iter
        (fun cn ->
          match Queue.peek_opt cn.pending with
          | Some (_, t0) when now -. t0 > request_timeout ->
              st.failed <- st.failed + Queue.length cn.pending;
              Queue.clear cn.pending;
              resend cn 0
          | _ -> ())
        waiting;
      loop ()
    end
  in
  loop ();
  st.wall <- Common.now () -. t_start;
  st.busy_share <- (Common.cpu_seconds () -. cpu0) /. st.wall;
  Array.iter (fun cn -> Wire.close cn.c) cs;
  st

(* Consecutive groups of [size] out of [n] requests: cycling forever, or
   up to the end when [cycle] is false. *)
let groups ~n ~size ~cycle =
  let k = ref 0 in
  fun () ->
    if (not cycle) && !k + size > n then None
    else begin
      let g = Array.init size (fun j -> (!k + j) mod n) in
      k := (!k + size) mod (if cycle then n else max_int);
      Some g
    end
