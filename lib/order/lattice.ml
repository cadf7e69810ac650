type model =
  | Rsc
  | Ksync of int
  | Fifo_nn
  | Causal
  | Fifo_1n
  | Fifo_n1
  | Fifo_11
  | Async

type violation = Limits.violation = { cycle : int list; reason : string }

let norm = function
  | Ksync k when k < 1 -> invalid_arg "Lattice: Ksync k requires k >= 1"
  | Ksync 1 -> Rsc
  | m -> m

let to_string = function
  | Rsc -> "rsc"
  | Ksync k -> "ksync" ^ string_of_int k
  | Fifo_nn -> "fifo-nn"
  | Causal -> "causal"
  | Fifo_1n -> "fifo-1n"
  | Fifo_n1 -> "fifo-n1"
  | Fifo_11 -> "fifo-11"
  | Async -> "async"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "rsc" | "sync" -> Some Rsc
  | "fifo-nn" | "fifo_nn" | "fifonn" -> Some Fifo_nn
  | "causal" | "co" -> Some Causal
  | "fifo-1n" | "fifo_1n" | "fifo1n" | "mailbox" -> Some Fifo_1n
  | "fifo-n1" | "fifo_n1" | "fifon1" -> Some Fifo_n1
  | "fifo-11" | "fifo_11" | "fifo11" -> Some Fifo_11
  | "async" -> Some Async
  | s when String.length s > 5 && String.sub s 0 5 = "ksync" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some k when k >= 1 -> Some (Ksync k)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Membership fast paths over the relation rows                       *)
(* ------------------------------------------------------------------ *)

let wb = Run.Abstract.word_bits

(* Largest strongly connected component of the message graph, by
   Warshall closure over its flat successor sets: x and y share a
   component iff each reaches the other. A message's word and bit
   advance with its index (the word size is not a compile-time constant
   here, so no division in the loops). *)
let max_scc r =
  let n = Run.Abstract.nmsgs r in
  if n <= 1 then n
  else begin
    let nw = Array.length Run.Abstract.((shape r).live) in
    let reach = Run.Abstract.message_rows ~with_sr:true r in
    let top = 1 lsl wb in
    let kw = ref 0 and kb = ref 1 in
    for k = 0 to n - 1 do
      let ko = k * nw in
      for x = 0 to n - 1 do
        let xo = x * nw in
        if reach.(xo + !kw) land !kb <> 0 then
          for w = 0 to nw - 1 do
            reach.(xo + w) <- reach.(xo + w) lor reach.(ko + w)
          done
      done;
      kb := !kb lsl 1;
      if !kb = top then begin
        kb := 1;
        incr kw
      end
    done;
    let best = ref 1 in
    let xw = ref 0 and xb = ref 1 in
    for x = 0 to n - 1 do
      let scc = ref 1 in
      for w = 0 to nw - 1 do
        let s = ref reach.((x * nw) + w) and y = ref (w * wb) in
        while !s <> 0 do
          if
            !s land 1 <> 0 && !y <> x && reach.((!y * nw) + !xw) land !xb <> 0
          then incr scc;
          s := !s lsr 1;
          incr y
        done
      done;
      if !scc > !best then best := !scc;
      xb := !xb lsl 1;
      if !xb = top then begin
        xb := 1;
        incr xw
      end
    done;
    !best
  end

(* The FIFO family: no overtaking pair (x.s ▷ y.s ∧ y.r ▷ x.r) whose
   attributes match the scope. Unknown attributes (-1) satisfy no
   guard. *)
type scope = By_src | By_dst | By_pair

let same (a : int array) x y = a.(x) >= 0 && a.(x) = a.(y)

let scope_same r scope x y =
  match scope with
  | By_src -> same Run.Abstract.((shape r).src) x y
  | By_dst -> same Run.Abstract.((shape r).dst) x y
  | By_pair ->
      same Run.Abstract.((shape r).src) x y
      && same Run.Abstract.((shape r).dst) x y

(* overtaking candidates for x: ss.(x) ∩ rr_t.(x), as Limits.is_causal,
   then filtered by the attribute guard *)
let is_fifo scope r =
  let n = Run.Abstract.nmsgs r and rows = Run.Abstract.rows r in
  let nw = Array.length Run.Abstract.((shape r).live) in
  let ok = ref true and x = ref 0 in
  while !ok && !x < n do
    let row = rows.(!x) in
    for w = 0 to nw - 1 do
      let s = ref (row.(w) land row.((7 * nw) + w)) and y = ref (w * wb) in
      while !s <> 0 do
        if !s land 1 <> 0 && scope_same r scope !x !y then ok := false;
        s := !s lsr 1;
        incr y
      done
    done;
    incr x
  done;
  !ok

let is_member m r =
  match norm m with
  | Rsc -> Limits.is_sync r
  | Ksync k -> max_scc r <= k
  | Fifo_nn -> Limits.acyclic_message_graph ~with_sr:false r
  | Causal -> Limits.is_causal r
  | Fifo_1n -> is_fifo By_src r
  | Fifo_n1 -> is_fifo By_dst r
  | Fifo_11 -> is_fifo By_pair r
  | Async -> true

(* ------------------------------------------------------------------ *)
(* Witness-producing references (lt / message_graph, no rows)         *)
(* ------------------------------------------------------------------ *)

(* Kahn over successor lists with cycle extraction, as
   Limits.check_sync. *)
let acyclic_or_cycle succ n ~what =
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun y -> indeg.(y) <- indeg.(y) + 1)) succ;
  let queue = Queue.create () in
  for x = 0 to n - 1 do
    if indeg.(x) = 0 then Queue.add x queue
  done;
  let numbering = Array.make n (-1) in
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    numbering.(x) <- !next;
    incr next;
    List.iter
      (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then Queue.add y queue)
      succ.(x)
  done;
  if !next = n then Ok ()
  else begin
    let in_cycle x = numbering.(x) < 0 in
    let start =
      let rec find x = if in_cycle x then x else find (x + 1) in
      find 0
    in
    let visited = Array.make n (-1) in
    let rec walk x step path =
      if visited.(x) >= 0 then
        let rec take acc = function
          | [] -> acc
          | y :: rest -> if y = x then y :: acc else take (y :: acc) rest
        in
        take [] path
      else begin
        visited.(x) <- step;
        match List.find_opt in_cycle succ.(x) with
        | Some y -> walk y (step + 1) (x :: path)
        | None -> List.rev (x :: path)
      end
    in
    let cycle = walk start 0 [] in
    Error
      {
        cycle;
        reason =
          Printf.sprintf "%s graph has a cycle of length %d" what
            (List.length cycle);
      }
  end

let check_overtake r scope ~what =
  let n = Run.Abstract.nmsgs r in
  let found = ref None in
  (try
     for x = 0 to n - 1 do
       for y = 0 to n - 1 do
         if
           x <> y
           && Run.Abstract.lt r (Event.send x) (Event.send y)
           && Run.Abstract.lt r (Event.deliver y) (Event.deliver x)
           && scope_same r scope x y
         then begin
           found :=
             Some
               {
                 cycle = [ x; y ];
                 reason =
                   Printf.sprintf
                     "x%d.s > x%d.s but x%d.r > x%d.r with %s: x%d overtaken"
                     x y y x what x;
               };
           raise Exit
         end
       done
     done
   with Exit -> ());
  match !found with None -> Ok () | Some v -> Error v

let check m r =
  let n = Run.Abstract.nmsgs r in
  match norm m with
  | Async -> Ok ()
  | Rsc -> (
      match Limits.check_sync r with Ok _ -> Ok () | Error v -> Error v)
  | Causal -> Limits.check_causal r
  | Ksync k ->
      let succ = Array.make n [] in
      List.iter
        (fun (x, y) -> succ.(x) <- y :: succ.(x))
        (Run.Abstract.message_graph r);
      let reach =
        Array.init n (fun s ->
            let seen = Array.make n false in
            let rec dfs x =
              List.iter
                (fun y ->
                  if not seen.(y) then begin
                    seen.(y) <- true;
                    dfs y
                  end)
                succ.(x)
            in
            dfs s;
            seen)
      in
      let best = ref [] and best_len = ref 0 in
      for x = 0 to n - 1 do
        let scc = ref [] and len = ref 0 in
        for y = n - 1 downto 0 do
          if y = x || (reach.(x).(y) && reach.(y).(x)) then begin
            scc := y :: !scc;
            incr len
          end
        done;
        if !len > !best_len then begin
          best := !scc;
          best_len := !len
        end
      done;
      if !best_len <= k then Ok ()
      else
        Error
          {
            cycle = !best;
            reason =
              Printf.sprintf
                "message graph has a strongly connected component of %d \
                 messages > k = %d"
                !best_len k;
          }
  | Fifo_nn ->
      let succ = Array.make n [] in
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          if
            x <> y
            && (Run.Abstract.lt r (Event.send x) (Event.send y)
               || Run.Abstract.lt r (Event.deliver x) (Event.send y)
               || Run.Abstract.lt r (Event.deliver x) (Event.deliver y))
          then succ.(x) <- y :: succ.(x)
        done
      done;
      acyclic_or_cycle succ n ~what:"one-queue FIFO"
  | Fifo_1n -> check_overtake r By_src ~what:"the same sender"
  | Fifo_n1 -> check_overtake r By_dst ~what:"the same destination"
  | Fifo_11 -> check_overtake r By_pair ~what:"the same channel"

(* ------------------------------------------------------------------ *)
(* The order, as data                                                 *)
(* ------------------------------------------------------------------ *)

let equal a b = norm a = norm b

let leq a b =
  let a = norm a and b = norm b in
  if a = b then true
  else
    match (a, b) with
    | Rsc, _ -> true
    | _, Async -> true
    | Async, _ | _, Rsc -> false
    | Ksync j, Ksync k -> j <= k
    | Ksync _, _ | _, Ksync _ -> false
    | Fifo_nn, (Causal | Fifo_1n | Fifo_n1 | Fifo_11) -> true
    | Causal, (Fifo_1n | Fifo_n1 | Fifo_11) -> true
    | (Fifo_1n | Fifo_n1), Fifo_11 -> true
    | _ -> false

let join a b =
  let a = norm a and b = norm b in
  if leq a b then b
  else if leq b a then a
  else
    match (a, b) with
    | Fifo_1n, Fifo_n1 | Fifo_n1, Fifo_1n -> Fifo_11
    | _ ->
        (* the only other incomparable pairs put Ksync k (k >= 2)
           against the FIFO/causal chain; no Ksync bound exists (crowns
           grow unboundedly within Causal), so the join is the top *)
        Async

let meet a b =
  let a = norm a and b = norm b in
  if leq a b then a
  else if leq b a then b
  else
    match (a, b) with
    | Fifo_1n, Fifo_n1 | Fifo_n1, Fifo_1n -> Causal
    | _ -> Rsc

let points ?(kmax = 3) () =
  let ks =
    if kmax < 2 then [] else List.init (kmax - 1) (fun i -> Ksync (i + 2))
  in
  (Rsc :: ks) @ [ Fifo_nn; Causal; Fifo_1n; Fifo_n1; Fifo_11; Async ]

let hasse ?(kmax = 3) () =
  let pts = points ~kmax () in
  let strict a b = leq a b && not (leq b a) in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            strict a b
            && not (List.exists (fun c -> strict a c && strict c b) pts)
          then Some (a, b)
          else None)
        pts)
    pts

let pp_violation = Limits.pp_violation
