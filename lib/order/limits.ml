type violation = { cycle : int list; reason : string }

let is_async (_ : Run.Abstract.t) = true

let check_causal r =
  let n = Run.Abstract.nmsgs r in
  let found = ref None in
  (try
     for x = 0 to n - 1 do
       for y = 0 to n - 1 do
         if
           x <> y
           && Run.Abstract.lt r (Event.send x) (Event.send y)
           && Run.Abstract.lt r (Event.deliver y) (Event.deliver x)
         then begin
           found :=
             Some
               {
                 cycle = [ x; y ];
                 reason =
                   Printf.sprintf
                     "x%d.s > x%d.s but x%d.r > x%d.r: x%d overtaken" x y y x
                     x;
               };
           raise Exit
         end
       done
     done
   with Exit -> ());
  match !found with None -> Ok () | Some v -> Error v

(* Fast membership test over the relation rows: a causal violation is
   some x with ss.(x) ∩ rr_t.(x) ≠ ∅, i.e. a y overtaken by x (both
   relations are strict, so x itself is never in the intersection).
   [check_causal] above stays as the reporting (and differential-reference)
   path. *)
let is_causal r =
  let n = Run.Abstract.nmsgs r and rows = Run.Abstract.rows r in
  let nw = Array.length Run.Abstract.((shape r).live) in
  let ok = ref true and x = ref 0 in
  while !ok && !x < n do
    let row = rows.(!x) in
    for w = 0 to nw - 1 do
      if row.(w) land row.((7 * nw) + w) <> 0 then ok := false
    done;
    incr x
  done;
  !ok

(* SYNC membership: build the message graph and attempt a topological
   numbering. A cycle in the message graph is a crown; we report it. *)
let check_sync r =
  let n = Run.Abstract.nmsgs r in
  let succ = Array.make n [] in
  List.iter
    (fun (x, y) -> succ.(x) <- y :: succ.(x))
    (Run.Abstract.message_graph r);
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
  if !next = n then Ok numbering
  else begin
    (* extract one cycle among the unnumbered messages *)
    let in_cycle x = numbering.(x) < 0 in
    let start =
      let rec find x = if in_cycle x then x else find (x + 1) in
      find 0
    in
    let visited = Array.make n (-1) in
    let rec walk x step path =
      if visited.(x) >= 0 then
        (* [path] holds the walk in reverse; the cycle is the suffix of the
           walk from the first visit of [x], i.e. the prefix of [path] up
           to and including [x], re-reversed *)
        let rec take acc = function
          | [] -> acc
          | y :: rest -> if y = x then y :: acc else take (y :: acc) rest
        in
        take [] path
      else begin
        visited.(x) <- step;
        let next_in_cycle = List.find_opt in_cycle succ.(x) in
        match next_in_cycle with
        | Some y -> walk y (step + 1) (x :: path)
        | None -> List.rev (x :: path)
      end
    in
    let cycle = walk start 0 [] in
    Error
      {
        cycle;
        reason =
          Printf.sprintf "message graph has a cycle (crown) of length %d"
            (List.length cycle);
      }
  end

(* Kahn over the message graph's flat successor sets (x's at words
   [x * nw ..]), scanning set bits word by word: acyclic iff every
   message gets numbered. *)
let acyclic_message_graph ~with_sr r =
  let n = Run.Abstract.nmsgs r in
  let nw = Array.length Run.Abstract.((shape r).live) in
  let g = Run.Abstract.message_rows ~with_sr r in
  let indeg = Array.make n 0 in
  for x = 0 to n - 1 do
    for w = 0 to nw - 1 do
      let s = ref g.((x * nw) + w) and y = ref (w * Run.Abstract.word_bits) in
      while !s <> 0 do
        if !s land 1 <> 0 then indeg.(!y) <- indeg.(!y) + 1;
        s := !s lsr 1;
        incr y
      done
    done
  done;
  let queue = Array.make n 0 and tail = ref 0 in
  for x = 0 to n - 1 do
    if indeg.(x) = 0 then begin
      queue.(!tail) <- x;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    for w = 0 to nw - 1 do
      let s = ref g.((x * nw) + w) and y = ref (w * Run.Abstract.word_bits) in
      while !s <> 0 do
        if !s land 1 <> 0 then begin
          indeg.(!y) <- indeg.(!y) - 1;
          if indeg.(!y) = 0 then begin
            queue.(!tail) <- !y;
            incr tail
          end
        end;
        s := !s lsr 1;
        incr y
      done
    done
  done;
  !tail = n

(* Fast SYNC membership: Kahn over the full message graph. [check_sync]
   stays as the witness-producing reference. *)
let is_sync r = acyclic_message_graph ~with_sr:true r

type cls = Sync | Causal_only | Async_only

let classify r =
  if is_sync r then Sync else if is_causal r then Causal_only else Async_only

let cls_to_string = function
  | Sync -> "X_sync"
  | Causal_only -> "X_co - X_sync"
  | Async_only -> "X_async - X_co"

let pp_violation ppf v =
  Format.fprintf ppf "%s (messages %a)" v.reason
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    v.cycle
