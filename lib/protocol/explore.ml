open Mo_order
module Sset = Set.Make (String)

type outcome = {
  run : Run.t option;
  all_delivered : bool;
  control_packets : int;
}

type stats = {
  executions : int;
  truncated : bool;
  replays : int;
  runs_built : int;
}

type pending =
  | P_invoke of { proc : int; intent : Protocol.intent }
  | P_arrive of { dst : int; from : int; packet : Message.packet }
  | P_timer of { proc : int; key : int }

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

(* One search over one workload: what every replay starts from, and the
   budget, stop flags and work counters every shard's walk shares. *)
type search = {
  nprocs : int;
  factory : Protocol.factory;
  invokes : Protocol.intent list array;  (** per-process invoke order *)
  msgs : (int * int) array;
  colors : int option array;
  max_executions : int;
  budget : int Atomic.t;  (** complete executions still allowed *)
  truncated : bool Atomic.t;
  error : string option Atomic.t;
  replays : int Atomic.t;
  runs_built : int Atomic.t;
}

let make_search ~max_executions ~nprocs factory ops =
  let max_executions = max 0 max_executions in
  let intents = expand ~nprocs ops in
  let nmsgs = List.length intents in
  let msgs = Array.make nmsgs (0, 0) in
  let colors = Array.make nmsgs None in
  let invokes = Array.make nprocs [] in
  List.iter
    (fun (src, (i : Protocol.intent)) ->
      msgs.(i.Protocol.id) <- (src, i.Protocol.dst);
      colors.(i.Protocol.id) <- i.Protocol.color;
      invokes.(src) <- i :: invokes.(src))
    intents;
  {
    nprocs;
    factory;
    invokes = Array.map List.rev invokes;
    msgs;
    colors;
    max_executions;
    budget = Atomic.make max_executions;
    truncated = Atomic.make false;
    error = Atomic.make None;
    replays = Atomic.make 0;
    runs_built = Atomic.make 0;
  }

(* A complete execution, before any [Run] is built from it. *)
type leaf = {
  user_rev : Event.t list array;  (** per-process user events, newest first *)
  delivered : bool;
  controls : int;
}

type replayed = Leaf of leaf | Fail of string

(* Run the protocol from scratch (instances are mutable closures, so there
   is nothing to snapshot): take [choices], then the first pending event
   at every further point until nothing is pending. Also returns how many
   events were pending at each of those further points, in order. *)
let replay s choices =
  let nprocs = s.nprocs in
  let nmsgs = Array.length s.msgs in
  let instances =
    Array.init nprocs (fun me -> s.factory.Protocol.make ~nprocs ~me)
  in
  let invokes = Array.copy s.invokes in
  let arrivals = ref [] in
  (* in-flight packets, stable order *)
  let timers = ref [] in
  (* armed timers; the explorer is untimed, so a timer may fire only once
     every packet in flight has been consumed (quiescence) — a sound
     schedule, and the one that keeps retransmission layers terminating:
     by quiescence every ack has arrived, so the timer is a no-op *)
  let user_rev = Array.make nprocs [] in
  let record p e = user_rev.(p) <- e :: user_rev.(p) in
  let sent = Array.make nmsgs false
  and received = Array.make nmsgs false
  and delivered = Array.make nmsgs false in
  let control_packets = ref 0 in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
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
              record p (Event.send u.Message.id);
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
            else if snd s.msgs.(id) <> p then
              fail "delivered at wrong process"
            else begin
              delivered.(id) <- true;
              record p (Event.deliver id)
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
                  record p (Event.send u.Message.id);
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
        apply_actions proc (instances.(proc).Protocol.on_invoke ~now:0 intent)
    | P_arrive { dst; from; packet } ->
        arrivals := List.filter (fun e -> e != ev) !arrivals;
        (match packet with
        | Message.User u | Message.Framed { inner = Message.User u; _ } ->
            received.(u.Message.id) <- true
        | Message.Control _ | Message.Framed _ -> ());
        apply_actions dst (instances.(dst).Protocol.on_packet ~now:0 ~from packet)
    | P_timer { proc; key } ->
        timers := List.filter (fun e -> e != ev) !timers;
        apply_actions proc (instances.(proc).Protocol.on_timer ~now:0 ~key)
  in
  let rec step choices fresh =
    match !error with
    | Some e -> (Fail e, [])
    | None -> (
        let ps = pending () in
        match (choices, ps) with
        | c :: rest, _ -> (
            match List.nth_opt ps c with
            | Some ev ->
                exec_event ev;
                step rest fresh
            | None -> (Fail "internal: stale choice", []))
        | [], [] ->
            ( Leaf
                {
                  user_rev;
                  delivered = Array.for_all Fun.id delivered;
                  controls = !control_packets;
                },
              List.rev fresh )
        | [], ev :: _ ->
            exec_event ev;
            step [] (List.length ps :: fresh))
  in
  step choices []

(* Visit every complete execution below [prefix] in DFS order, replaying
   each exactly once: after a leaf, bump the deepest choice below the
   prefix that has an untried alternative and cut the path after it. The
   walk never backtracks above [prefix]. A replay runs only while the
   shared budget allows another execution, so [truncated] is set exactly
   when a schedule exists past the budget. *)
let walk s prefix ~on_leaf =
  let replays = ref 0 in
  (* [below]: the (choice, pending count) pairs under the prefix, deepest
     first *)
  let push below n = (0, n) :: below in
  let rec advance = function
    | (c, n) :: rest when c + 1 < n -> Some ((c + 1, n) :: rest)
    | _ :: rest -> advance rest
    | [] -> None
  in
  let rec go below =
    if Atomic.get s.truncated || Atomic.get s.error <> None then ()
    else if Atomic.get s.budget <= 0 then Atomic.set s.truncated true
    else begin
      incr replays;
      match replay s (prefix @ List.rev_map fst below) with
      | Fail e, _ -> ignore (Atomic.compare_and_set s.error None (Some e))
      | Leaf l, fresh -> (
          if Atomic.fetch_and_add s.budget (-1) <= 0 then
            Atomic.set s.truncated true
          else begin
            on_leaf l;
            match advance (List.fold_left push below fresh) with
            | Some below -> go below
            | None -> ()
          end)
    end
  in
  go [];
  ignore (Atomic.fetch_and_add s.replays !replays)

(* BFS-expand the root of the schedule tree into choice prefixes until
   there are enough subtrees to feed every worker, or the tree proves
   shallow. Prefixes whose replay already completes (or misbehaves) stay
   as leaves; expanding a prefix replaces it by its children in choice
   order, so reading the final list left to right visits subtrees exactly
   in sequential DFS order. *)
let shard_prefixes s ~target =
  let children prefix =
    Atomic.incr s.replays;
    match replay s prefix with
    | Leaf _, n :: _ -> List.init n (fun i -> prefix @ [ i ])
    | _ -> []
  in
  let rec grow depth frontier nleaves =
    if depth >= 4 || nleaves >= target then frontier
    else begin
      let expanded = ref false in
      let nleaves = ref 0 in
      let next =
        List.concat_map
          (fun (leaf, prefix) ->
            match if leaf then [] else children prefix with
            | [] ->
                incr nleaves;
                [ (true, prefix) ]
            | cs ->
                expanded := true;
                nleaves := !nleaves + List.length cs;
                List.map (fun c -> (false, c)) cs)
          frontier
      in
      if !expanded then grow (depth + 1) next !nleaves else next
    end
  in
  List.map snd (grow 0 [ (false, []) ] 1)

(* Fold [f] over the leaves in DFS order: one walk over the root prefix
   without a pool (or on one job), otherwise one walk per shard, merged in
   shard order. *)
let fold_leaves ?pool s ~init ~f ~merge =
  let shard prefix =
    let acc = ref init in
    walk s prefix ~on_leaf:(fun l -> acc := f !acc l);
    !acc
  in
  let acc =
    match pool with
    | Some pool when Mo_par.Pool.jobs pool > 1 ->
        let shards =
          Array.of_list
            (shard_prefixes s ~target:(Mo_par.Pool.jobs pool * 8))
        in
        Mo_par.Pool.fold pool (Array.length shards)
          ~f:(fun i -> shard shards.(i))
          ~merge ~init
    | _ -> shard []
  in
  match Atomic.get s.error with
  | Some e -> Error e
  | None ->
      Ok
        ( acc,
          {
            executions = s.max_executions - max 0 (Atomic.get s.budget);
            truncated = Atomic.get s.truncated;
            replays = Atomic.get s.replays;
            runs_built = Atomic.get s.runs_built;
          } )

let build_run s l =
  Atomic.incr s.runs_built;
  match
    Run.of_sequences ~nprocs:s.nprocs ~msgs:s.msgs ~colors:s.colors
      (Array.map List.rev l.user_rev)
  with
  | Ok r -> Some r
  | Error _ -> None

let outcome_of s l =
  {
    run = (if l.delivered then build_run s l else None);
    all_delivered = l.delivered;
    control_packets = l.controls;
  }

let with_pool pool k =
  match pool with Some p -> k p | None -> k (Mo_par.Pool.create ())

let explore ?(max_executions = 200_000) ~nprocs factory ops ~on_outcome =
  let s = make_search ~max_executions ~nprocs factory ops in
  fold_leaves s ~init:()
    ~f:(fun () l -> on_outcome (outcome_of s l))
    ~merge:(fun () () -> ())
  |> Result.map snd

let explore_par ?pool ?(max_executions = 200_000) ~nprocs factory ops ~init ~f
    ~merge () =
  let s = make_search ~max_executions ~nprocs factory ops in
  with_pool pool (fun pool ->
      fold_leaves ~pool s ~init
        ~f:(fun acc l -> f acc (outcome_of s l))
        ~merge)

let view_key r =
  String.concat "|"
    (List.init (Run.nprocs r) (fun p ->
         String.concat ","
           (List.map
              (fun e -> string_of_int (Event.encode e))
              (Run.sequence r p))))

(* A leaf's view as bytes: each event's [Event.encode + 1] as a varint
   (no byte is 0), processes separated by a 0 byte. Two leaves share a key
   iff their runs share a [view_key]. *)
let leaf_key l =
  let b = Buffer.create 32 in
  let rec code v =
    if v < 128 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (128 lor (v land 127)));
      code (v lsr 7)
    end
  in
  Array.iter
    (fun evs ->
      List.iter (fun e -> code (Event.encode e + 1)) evs;
      Buffer.add_char b '\000')
    l.user_rev;
  Buffer.contents b

(* First schedule reaching a view wins; a [Run] is built only for a key
   not seen before. *)
type views = { keys : Sset.t; runs_rev : (string * Run.t) list }

let no_views = { keys = Sset.empty; runs_rev = [] }

let add_view acc (k, r) =
  if Sset.mem k acc.keys then acc
  else { keys = Sset.add k acc.keys; runs_rev = (k, r) :: acc.runs_rev }

let add_leaf s acc l =
  if not l.delivered then acc
  else
    let k = leaf_key l in
    if Sset.mem k acc.keys then acc
    else
      match build_run s l with Some r -> add_view acc (k, r) | None -> acc

(* shards arrive in DFS order, so the first occurrence still wins *)
let merge_views a b = List.fold_left add_view a (List.rev b.runs_rev)

let fold_views ?pool ~max_executions ~nprocs factory ops =
  let s = make_search ~max_executions ~nprocs factory ops in
  fold_leaves ?pool s ~init:no_views ~f:(add_leaf s) ~merge:merge_views
  |> Result.map (fun (v, stats) -> (List.rev_map snd v.runs_rev, stats))

let distinct_user_views ?(max_executions = 200_000) ~nprocs factory ops =
  fold_views ~max_executions ~nprocs factory ops |> Result.map fst

let distinct_user_views_par ?pool ?(max_executions = 200_000) ~nprocs factory
    ops =
  with_pool pool (fun pool ->
      fold_views ~pool ~max_executions ~nprocs factory ops)
