(* Streaming must-happened-before frontier over a bounded slot window.

   Every slot set is [nw = ceil (window / wb)] ints, wb =
   Run.Abstract.word_bits: slot y is bit [y mod wb] of word [y / wb], as
   in Run.Abstract.rows. Slot x's state is one block, rows.(x): the eight
   relation sections in Run.Abstract order (section k at words
   [k * nw ..]), then sp_s and sp_r. Bit y of a forward section of row x
   means x.p ▷ y.q; transpose sections mirror column reads. Every update
   keeps forward and transpose sections in lock step.

   Per process p the monitor keeps past_s / past_r (nw words at p * nw):
   the slots whose send (resp. delivery) is in the causal past of p's
   latest event. Per slot j, sp_s / sp_r freeze those sets at j's send,
   so j's delivery can reconstruct the send's past without history.
   pend_to (per process) tracks slots pending delivery at p: whenever
   p's past grows, the new events gain must-edges into those virtual
   deliveries. *)

let max_window = 4096
let default_window = 62
let wb = Run.Abstract.word_bits

(* section offsets, as Run.Abstract: ss sr rs rr then transposes, then
   the frozen send pasts *)
let ss = 0
and sr = 1
and rs = 2
and rr = 3
and ss_t = 4
and sr_t = 5
and rs_t = 6
and rr_t = 7
and sp_s = 8
and sp_r = 9

let sections = 10

type t = {
  window : int;
  nprocs : int;
  nw : int; (* words per slot set *)
  rows : int array array; (* per slot: [sections * nw] words *)
  slot_id : int array; (* message id per slot, -1 when free *)
  slot_src : int array;
  slot_dst : int array;
  slot_color : int array; (* -1 = no color *)
  live : int array; (* occupied slots *)
  delivered : int array; (* delivered live slots *)
  past_s : int array; (* per process, nw words each *)
  past_r : int array;
  pend_to : int array; (* per process: pending slots addressed to it *)
  slot_of : (int, int) Hashtbl.t; (* message id -> slot *)
  retire_q : int Queue.t; (* delivered slots, delivery order *)
  mutable fresh : int; (* slots never yet allocated are fresh .. window-1 *)
  mutable events : int;
  mutable retired : int;
}

let create ?(window = default_window) ~nprocs () =
  if window < 1 || window > max_window then
    invalid_arg "Monitor.create: window out of range";
  if nprocs <= 0 then invalid_arg "Monitor.create: nprocs must be positive";
  let nw = (window + wb - 1) / wb in
  {
    window;
    nprocs;
    nw;
    rows = Array.init window (fun _ -> Array.make (sections * nw) 0);
    slot_id = Array.make window (-1);
    slot_src = Array.make window (-1);
    slot_dst = Array.make window (-1);
    slot_color = Array.make window (-1);
    live = Array.make nw 0;
    delivered = Array.make nw 0;
    past_s = Array.make (nprocs * nw) 0;
    past_r = Array.make (nprocs * nw) 0;
    pend_to = Array.make (nprocs * nw) 0;
    slot_of = Hashtbl.create (2 * window);
    retire_q = Queue.create ();
    fresh = 0;
    events = 0;
    retired = 0;
  }

let window t = t.window
let nprocs t = t.nprocs
let events t = t.events
let retired t = t.retired
let live t = t.live
let rows t = t.rows
let slot_src t = t.slot_src
let slot_dst t = t.slot_dst
let slot_color t = t.slot_color

let popcount n =
  let c = ref 0 and v = ref n in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr c
  done;
  !c

let pending t =
  let p = ref 0 in
  for i = 0 to Array.length t.pend_to - 1 do
    p := !p + popcount t.pend_to.(i)
  done;
  !p

let check_slot t j name =
  if j < 0 || j >= t.window || t.slot_id.(j) < 0 then
    invalid_arg ("Monitor." ^ name ^ ": free slot")

let slot_msg t j =
  check_slot t j "slot_msg";
  t.slot_id.(j)

let slot_delivered t j =
  check_slot t j "slot_delivered";
  t.delivered.(j / wb) land (1 lsl (j mod wb)) <> 0

(* rows.(x).(i) <- rows.(x).(i) lor b for every slot x in [set], one word
   of a slot set whose bit 0 is slot [base] *)
let or_into_rows (rows : int array array) set base i b =
  let s = ref set and x = ref base in
  while !s <> 0 do
    if !s land 1 <> 0 then begin
      let r = rows.(!x) in
      r.(i) <- r.(i) lor b
    end;
    s := !s lsr 1;
    incr x
  done

(* OR the nw-word set at src.(off ..) into words [i ..] of the row of
   every slot in [set] (one word, bit 0 = slot [base]) *)
let or_set_into_rows (rows : int array array) set base i (src : int array)
    off nw =
  let s = ref set and x = ref base in
  while !s <> 0 do
    if !s land 1 <> 0 then begin
      let r = rows.(!x) in
      for w = 0 to nw - 1 do
        r.(i + w) <- r.(i + w) lor src.(off + w)
      done
    end;
    s := !s lsr 1;
    incr x
  done

(* recycle slot k: erase it from every row, past and index *)
let retire t k =
  let nw = t.nw and wk = k / wb in
  let keep = lnot (1 lsl (k mod wb)) in
  for x = 0 to t.window - 1 do
    let r = t.rows.(x) in
    for s = 0 to sections - 1 do
      let i = (s * nw) + wk in
      r.(i) <- r.(i) land keep
    done
  done;
  Array.fill t.rows.(k) 0 (8 * nw) 0;
  for p = 0 to t.nprocs - 1 do
    let i = (p * nw) + wk in
    t.past_s.(i) <- t.past_s.(i) land keep;
    t.past_r.(i) <- t.past_r.(i) land keep
  done;
  Hashtbl.remove t.slot_of t.slot_id.(k);
  t.slot_id.(k) <- -1;
  t.delivered.(wk) <- t.delivered.(wk) land keep;
  t.live.(wk) <- t.live.(wk) land keep;
  t.retired <- t.retired + 1

let alloc t =
  if t.fresh < t.window then begin
    let k = t.fresh in
    t.fresh <- k + 1;
    k
  end
  else
    match Queue.take_opt t.retire_q with
    | Some k ->
        retire t k;
        k
    | None ->
        invalid_arg "Monitor.send: window exhausted (every slot pending)"

let send t ~msg ~src ~dst ?(color = -1) () =
  if src < 0 || src >= t.nprocs then invalid_arg "Monitor.send: bad src";
  if dst < 0 || dst >= t.nprocs then invalid_arg "Monitor.send: bad dst";
  if Hashtbl.mem t.slot_of msg then
    invalid_arg "Monitor.send: duplicate send";
  let j = alloc t in
  let nw = t.nw and rows = t.rows in
  let wj = j / wb and bj = 1 lsl (j mod wb) in
  let rj = rows.(j) in
  Hashtbl.replace t.slot_of msg j;
  t.slot_id.(j) <- msg;
  t.slot_src.(j) <- src;
  t.slot_dst.(j) <- dst;
  t.slot_color.(j) <- color;
  for w = 0 to nw - 1 do
    let base = w * wb in
    let ps = t.past_s.((src * nw) + w) and pr = t.past_r.((src * nw) + w) in
    rj.((sp_s * nw) + w) <- ps;
    rj.((sp_r * nw) + w) <- pr;
    (* edges into the new send event: k.s ▷ j.s and k.r ▷ j.s *)
    or_into_rows rows ps base ((ss * nw) + wj) bj;
    rj.((ss_t * nw) + w) <- ps;
    or_into_rows rows pr base ((rs * nw) + wj) bj;
    rj.((rs_t * nw) + w) <- pr;
    (* must-edges into j's virtual delivery: j.r follows j.s (hence the
       send's whole past) and the current past of dst, in every
       completion *)
    let vs =
      ps lor t.past_s.((dst * nw) + w) lor if w = wj then bj else 0
    in
    let vr = pr lor t.past_r.((dst * nw) + w) in
    or_into_rows rows vs base ((sr * nw) + wj) bj;
    rj.((sr_t * nw) + w) <- vs;
    or_into_rows rows vr base ((rr * nw) + wj) bj;
    rj.((rr_t * nw) + w) <- vr;
    (* j.s is now in src's past, so it precedes every delivery still
       pending at src *)
    let p = t.pend_to.((src * nw) + w) in
    if p <> 0 then begin
      rj.((sr * nw) + w) <- rj.((sr * nw) + w) lor p;
      or_into_rows rows p base ((sr_t * nw) + wj) bj
    end
  done;
  let i = (src * nw) + wj in
  t.past_s.(i) <- t.past_s.(i) lor bj;
  let i = (dst * nw) + wj in
  t.pend_to.(i) <- t.pend_to.(i) lor bj;
  t.live.(wj) <- t.live.(wj) lor bj;
  t.events <- t.events + 1

let deliver t ~msg =
  match Hashtbl.find_opt t.slot_of msg with
  | None -> invalid_arg "Monitor.deliver: message not sent"
  | Some j ->
      if slot_delivered t j then
        invalid_arg "Monitor.deliver: duplicate delivery";
      let nw = t.nw and rows = t.rows in
      let wj = j / wb and bj = 1 lsl (j mod wb) in
      let rj = rows.(j) in
      let q = t.slot_dst.(j) in
      let qo = q * nw in
      (* the real past of j.r: q's past joined with the send's past. The
         virtual rows written at send time are always a subset, so only
         the delta needs forward updates. *)
      for w = 0 to nw - 1 do
        let base = w * wb and jb = if w = wj then bj else 0 in
        let es = t.past_s.(qo + w) lor rj.((sp_s * nw) + w) lor jb in
        let er = t.past_r.(qo + w) lor rj.((sp_r * nw) + w) in
        or_into_rows rows
          (es land lnot rj.((sr_t * nw) + w))
          base ((sr * nw) + wj) bj;
        rj.((sr_t * nw) + w) <- es;
        or_into_rows rows
          (er land lnot rj.((rr_t * nw) + w))
          base ((rr * nw) + wj) bj;
        rj.((rr_t * nw) + w) <- er
      done;
      (* j is no longer pending at q *)
      t.pend_to.(qo + wj) <- t.pend_to.(qo + wj) land lnot bj;
      let pending_at_q = ref false in
      for w = 0 to nw - 1 do
        if t.pend_to.(qo + w) <> 0 then pending_at_q := true
      done;
      (* q's past grows by ds / dr, the newly absorbed events (and j.r
         itself): they precede every delivery still pending at q *)
      for w = 0 to nw - 1 do
        let base = w * wb and jb = if w = wj then bj else 0 in
        let ds = (rj.((sp_s * nw) + w) lor jb) land lnot t.past_s.(qo + w) in
        let dr = (rj.((sp_r * nw) + w) lor jb) land lnot t.past_r.(qo + w) in
        if !pending_at_q then begin
          or_set_into_rows rows ds base (sr * nw) t.pend_to qo nw;
          or_set_into_rows rows dr base (rr * nw) t.pend_to qo nw;
          for pw = 0 to nw - 1 do
            let p = t.pend_to.(qo + pw) and pbase = pw * wb in
            if ds <> 0 then or_into_rows rows p pbase ((sr_t * nw) + w) ds;
            if dr <> 0 then or_into_rows rows p pbase ((rr_t * nw) + w) dr
          done
        end;
        t.past_s.(qo + w) <- t.past_s.(qo + w) lor ds;
        t.past_r.(qo + w) <- t.past_r.(qo + w) lor dr
      done;
      t.delivered.(wj) <- t.delivered.(wj) lor bj;
      Queue.add j t.retire_q;
      t.events <- t.events + 1

let frontier_bytes t =
  let word = Sys.word_size / 8 and nw = t.nw in
  let ints =
    (8 * t.window * nw) (* relation sections *)
    + (4 * t.window) (* slot_id/src/dst/color *)
    + (2 * t.window * nw) (* sp_s, sp_r *)
    + (3 * t.nprocs * nw) (* past_s, past_r, pend_to *)
    + (2 * nw) (* live, delivered *)
    + 3 (* events, retired, and the queue head *)
  in
  (* hash table and retire queue are bounded by the window *)
  word * (ints + (4 * t.window))
