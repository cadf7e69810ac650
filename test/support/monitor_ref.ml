(* Mo_order.Monitor as the Bitset automaton it replaced: every slot set
   is one Bitset of capacity [window], and the update rules are those of
   the shipped automaton operation for operation (lor -> union/add,
   land lnot -> diff/remove). The shipped monitor keeps the same sets as
   words of int rows; this module is its differential oracle, compared
   section by section after every event in test_monitor. *)

open Mo_order

(* section offsets, as Run.Abstract: ss sr rs rr then transposes *)
let ss = 0
and sr = 1
and rs = 2
and rr = 3
and ss_t = 4
and sr_t = 5
and rs_t = 6
and rr_t = 7

type t = {
  window : int;
  nprocs : int;
  rel : Bitset.t array; (* 8 * window rows, Run.Abstract section order *)
  slot_id : int array;
  slot_src : int array;
  slot_dst : int array;
  slot_color : int array;
  delivered : Bitset.t;
  sp_s : Bitset.t array;
  sp_r : Bitset.t array;
  past_s : Bitset.t array;
  past_r : Bitset.t array;
  pend_to : Bitset.t array;
  slot_of : (int, int) Hashtbl.t;
  retire_q : int Queue.t;
  live : Bitset.t;
  mutable events : int;
  mutable retired : int;
  empty : Bitset.t; (* constant, for clearing rows *)
  tmp_a : Bitset.t; (* scratch, valid within one operation *)
  tmp_b : Bitset.t;
}

let create ~window ~nprocs () =
  let bs () = Bitset.create window in
  {
    window;
    nprocs;
    rel = Array.init (8 * window) (fun _ -> bs ());
    slot_id = Array.make window (-1);
    slot_src = Array.make window (-1);
    slot_dst = Array.make window (-1);
    slot_color = Array.make window (-1);
    delivered = bs ();
    sp_s = Array.init window (fun _ -> bs ());
    sp_r = Array.init window (fun _ -> bs ());
    past_s = Array.init nprocs (fun _ -> bs ());
    past_r = Array.init nprocs (fun _ -> bs ());
    pend_to = Array.init nprocs (fun _ -> bs ());
    slot_of = Hashtbl.create (2 * window);
    retire_q = Queue.create ();
    live = bs ();
    events = 0;
    retired = 0;
    empty = bs ();
    tmp_a = bs ();
    tmp_b = bs ();
  }

let pending t =
  let p = ref 0 in
  for q = 0 to t.nprocs - 1 do
    p := !p + Bitset.cardinal t.pend_to.(q)
  done;
  !p

let slot_msg t j =
  if j < 0 || j >= t.window || t.slot_id.(j) < 0 then
    invalid_arg "Monitor.slot_msg: free slot";
  t.slot_id.(j)

let slot_delivered t j = Bitset.mem t.delivered j

let retire t k =
  for i = 0 to (8 * t.window) - 1 do
    Bitset.remove t.rel.(i) k
  done;
  for s = 0 to 7 do
    Bitset.copy_into ~dst:t.rel.((s * t.window) + k) t.empty
  done;
  for j = 0 to t.window - 1 do
    Bitset.remove t.sp_s.(j) k;
    Bitset.remove t.sp_r.(j) k
  done;
  for p = 0 to t.nprocs - 1 do
    Bitset.remove t.past_s.(p) k;
    Bitset.remove t.past_r.(p) k
  done;
  Hashtbl.remove t.slot_of t.slot_id.(k);
  t.slot_id.(k) <- -1;
  Bitset.remove t.delivered k;
  Bitset.remove t.live k;
  t.retired <- t.retired + 1

let alloc t =
  if Bitset.cardinal t.live < t.window then (
    let k = ref 0 in
    while Bitset.mem t.live !k do
      incr k
    done;
    !k)
  else
    match Queue.take_opt t.retire_q with
    | Some k ->
        retire t k;
        k
    | None ->
        invalid_arg "Monitor.send: window exhausted (every slot pending)"

let send t ~msg ~src ~dst ~color =
  if Hashtbl.mem t.slot_of msg then
    invalid_arg "Monitor.send: duplicate send";
  let j = alloc t in
  let w = t.window and m = t.rel in
  Hashtbl.replace t.slot_of msg j;
  t.slot_id.(j) <- msg;
  t.slot_src.(j) <- src;
  t.slot_dst.(j) <- dst;
  t.slot_color.(j) <- color;
  let ps = t.past_s.(src) and pr = t.past_r.(src) in
  Bitset.copy_into ~dst:t.sp_s.(j) ps;
  Bitset.copy_into ~dst:t.sp_r.(j) pr;
  Bitset.iter (fun k -> Bitset.add m.((ss * w) + k) j) ps;
  Bitset.copy_into ~dst:m.((ss_t * w) + j) ps;
  Bitset.iter (fun k -> Bitset.add m.((rs * w) + k) j) pr;
  Bitset.copy_into ~dst:m.((rs_t * w) + j) pr;
  let vs = t.tmp_a in
  Bitset.copy_into ~dst:vs ps;
  Bitset.add vs j;
  Bitset.union_into ~dst:vs t.past_s.(dst);
  let vr = t.tmp_b in
  Bitset.copy_into ~dst:vr pr;
  Bitset.union_into ~dst:vr t.past_r.(dst);
  Bitset.iter (fun k -> Bitset.add m.((sr * w) + k) j) vs;
  Bitset.copy_into ~dst:m.((sr_t * w) + j) vs;
  Bitset.iter (fun k -> Bitset.add m.((rr * w) + k) j) vr;
  Bitset.copy_into ~dst:m.((rr_t * w) + j) vr;
  let p = t.pend_to.(src) in
  if not (Bitset.is_empty p) then (
    Bitset.union_into ~dst:m.((sr * w) + j) p;
    Bitset.iter (fun y -> Bitset.add m.((sr_t * w) + y) j) p);
  Bitset.add t.past_s.(src) j;
  Bitset.add t.pend_to.(dst) j;
  Bitset.add t.live j;
  t.events <- t.events + 1

let deliver t ~msg =
  match Hashtbl.find_opt t.slot_of msg with
  | None -> invalid_arg "Monitor.deliver: message not sent"
  | Some j ->
      if slot_delivered t j then
        invalid_arg "Monitor.deliver: duplicate delivery";
      let w = t.window and m = t.rel in
      let q = t.slot_dst.(j) in
      let es = t.tmp_a in
      Bitset.copy_into ~dst:es t.past_s.(q);
      Bitset.union_into ~dst:es t.sp_s.(j);
      Bitset.add es j;
      let er = t.tmp_b in
      Bitset.copy_into ~dst:er t.past_r.(q);
      Bitset.union_into ~dst:er t.sp_r.(j);
      (* delta-only forward updates, as the packed path *)
      let delta = Bitset.copy es in
      Bitset.diff_into ~dst:delta m.((sr_t * w) + j);
      Bitset.iter (fun k -> Bitset.add m.((sr * w) + k) j) delta;
      Bitset.copy_into ~dst:m.((sr_t * w) + j) es;
      let delta = Bitset.copy er in
      Bitset.diff_into ~dst:delta m.((rr_t * w) + j);
      Bitset.iter (fun k -> Bitset.add m.((rr * w) + k) j) delta;
      Bitset.copy_into ~dst:m.((rr_t * w) + j) er;
      let ds = Bitset.copy es in
      Bitset.diff_into ~dst:ds t.past_s.(q);
      let dr = Bitset.copy er in
      Bitset.add dr j;
      Bitset.diff_into ~dst:dr t.past_r.(q);
      let p = Bitset.copy t.pend_to.(q) in
      Bitset.remove p j;
      if not (Bitset.is_empty p) then (
        Bitset.iter
          (fun u -> Bitset.union_into ~dst:m.((sr * w) + u) p)
          ds;
        Bitset.iter
          (fun u -> Bitset.union_into ~dst:m.((rr * w) + u) p)
          dr;
        Bitset.iter
          (fun y ->
            Bitset.union_into ~dst:m.((sr_t * w) + y) ds;
            Bitset.union_into ~dst:m.((rr_t * w) + y) dr)
          p);
      Bitset.copy_into ~dst:t.past_s.(q) es;
      Bitset.copy_into ~dst:t.past_r.(q) er;
      Bitset.add t.past_r.(q) j;
      Bitset.remove t.pend_to.(q) j;
      Bitset.add t.delivered j;
      Queue.add j t.retire_q;
      t.events <- t.events + 1
