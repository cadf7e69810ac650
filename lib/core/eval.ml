open Mo_order

let conjunct_holds run assignment (c : Term.conjunct) =
  let ev (e : Term.endpoint) =
    { Event.msg = assignment.(e.var); point = e.point }
  in
  Run.Abstract.lt run (ev c.before) (ev c.after)

let guard_holds run assignment (g : Term.guard) =
  let attrs v = Run.Abstract.attrs run assignment.(v) in
  match g with
  | Term.Same_src (x, y) -> (
      match ((attrs x).Run.src, (attrs y).Run.src) with
      | Some a, Some b -> a = b
      | _ -> false)
  | Term.Same_dst (x, y) -> (
      match ((attrs x).Run.dst, (attrs y).Run.dst) with
      | Some a, Some b -> a = b
      | _ -> false)
  | Term.Color_is (x, c) -> (attrs x).Run.color = Some c

let check_assignment p run assignment =
  if Array.length assignment <> Forbidden.nvars p then
    invalid_arg "Eval.check_assignment: arity mismatch";
  List.for_all (conjunct_holds run assignment) (Forbidden.conjuncts p)
  && List.for_all (guard_holds run assignment) (Forbidden.guards p)

(* ------------------------------------------------------------------ *)
(* Reference interpreter.                                             *)
(* ------------------------------------------------------------------ *)

(* Index conjuncts and guards by the highest variable they mention, so each
   is checked as soon as its last variable is assigned. *)
let stage_by_max_var p =
  let m = Forbidden.nvars p in
  let conj_at = Array.make (max m 1) [] in
  let guard_at = Array.make (max m 1) [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let v = max c.before.var c.after.var in
      conj_at.(v) <- c :: conj_at.(v))
    (Forbidden.conjuncts p);
  List.iter
    (fun (g : Term.guard) ->
      let v =
        match g with
        | Term.Same_src (x, y) | Term.Same_dst (x, y) -> max x y
        | Term.Color_is (x, _) -> x
      in
      guard_at.(v) <- g :: guard_at.(v))
    (Forbidden.guards p);
  (conj_at, guard_at)

let search_ref ?(distinct = true) ?(limit = max_int) p run =
  let m = Forbidden.nvars p in
  let n = Run.Abstract.nmsgs run in
  if m = 0 then [ [||] ] (* empty conjunction: trivially true *)
  else if n = 0 || (distinct && n < m) then []
  else begin
    let conj_at, guard_at = stage_by_max_var p in
    let assignment = Array.make m (-1) in
    let used = Array.make n false in
    let results = ref [] in
    let count = ref 0 in
    let exception Done in
    let rec assign v =
      if v = m then begin
        incr count;
        results := Array.copy assignment :: !results;
        if !count >= limit then raise Done
      end
      else
        for msg = 0 to n - 1 do
          if not (distinct && used.(msg)) then begin
            assignment.(v) <- msg;
            used.(msg) <- true;
            let ok =
              List.for_all (conjunct_holds run assignment) conj_at.(v)
              && List.for_all (guard_holds run assignment) guard_at.(v)
            in
            if ok then assign (v + 1);
            used.(msg) <- false
          end
        done
    in
    (try assign 0 with Done -> ());
    List.rev !results
  end

let find_match_ref ?distinct p run =
  match search_ref ?distinct ~limit:1 p run with
  | a :: _ -> Some a
  | [] -> None

let find_matches_ref ?distinct ?(limit = 1000) p run =
  search_ref ?distinct ~limit p run

let holds_ref ?distinct p run = Option.is_some (find_match_ref ?distinct p run)

let satisfies_ref ?distinct p run = not (holds_ref ?distinct p run)

(* ------------------------------------------------------------------ *)
(* Compiled evaluator.                                                *)
(*                                                                    *)
(* A predicate compiles once into staged matching plans over the bit  *)
(* matrices of Run.Abstract.relations. At each stage the candidate    *)
(* set for the stage's variable starts as the full message universe   *)
(* (minus used messages under distinctness) and is narrowed by        *)
(* intersecting one matrix row per binary conjunct linking it to an   *)
(* already-bound variable; only same-variable conjuncts and guards    *)
(* remain as per-candidate scalar checks. Two plans are kept:         *)
(*                                                                    *)
(* - [lex]: identity variable order. Pruning only removes candidates  *)
(*   the reference interpreter would reject at the same stage, so     *)
(*   matches stream out in exactly the reference's lexicographic      *)
(*   order — find_match/find_matches stay byte-identical.             *)
(* - [fast]: most-constrained-variable-first order (greedy: most      *)
(*   conjunct links to already-ordered variables, then highest        *)
(*   degree). Used for the boolean queries, where only existence      *)
(*   matters and tighter early stages prune best.                     *)
(* ------------------------------------------------------------------ *)

(* which matrix row constrains the candidates of the current variable,
   given the bound endpoint's message *)
type sel = SS | SR | RS | RR | SS_T | SR_T | RS_T | RR_T

type cstage = {
  var : int;
  rows : (int * sel) array; (* (bound variable, matrix) per binary conjunct *)
  self_conj : Term.conjunct list; (* both endpoints on this variable *)
  sguards : Term.guard list; (* guards whose last variable is this one *)
}

type compiled = {
  pred : Forbidden.t;
  m : int;
  lex : cstage array;
  fast : cstage array;
}

let fwd_sel (b : Event.point) (a : Event.point) =
  match (b, a) with
  | Event.S, Event.S -> SS
  | Event.S, Event.R -> SR
  | Event.R, Event.S -> RS
  | Event.R, Event.R -> RR

let bwd_sel (b : Event.point) (a : Event.point) =
  match (b, a) with
  | Event.S, Event.S -> SS_T
  | Event.S, Event.R -> SR_T
  | Event.R, Event.S -> RS_T
  | Event.R, Event.R -> RR_T

let row_of (rel : Run.Abstract.relations) sel msg =
  match sel with
  | SS -> rel.Run.Abstract.ss.(msg)
  | SR -> rel.Run.Abstract.sr.(msg)
  | RS -> rel.Run.Abstract.rs.(msg)
  | RR -> rel.Run.Abstract.rr.(msg)
  | SS_T -> rel.Run.Abstract.ss_t.(msg)
  | SR_T -> rel.Run.Abstract.sr_t.(msg)
  | RS_T -> rel.Run.Abstract.rs_t.(msg)
  | RR_T -> rel.Run.Abstract.rr_t.(msg)

let build_stages p order =
  let m = Forbidden.nvars p in
  let pos_of = Array.make m 0 in
  Array.iteri (fun i v -> pos_of.(v) <- i) order;
  let rows = Array.make m [] in
  let self_conj = Array.make m [] in
  let sguards = Array.make m [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let b = c.before.var and a = c.after.var in
      if b = a then self_conj.(pos_of.(b)) <- c :: self_conj.(pos_of.(b))
      else if pos_of.(b) < pos_of.(a) then
        (* [before] is bound when [after] is being chosen: candidates y
           with b_msg.point ▷ y.point' are a forward row at b's message *)
        rows.(pos_of.(a)) <-
          (b, fwd_sel c.before.point c.after.point) :: rows.(pos_of.(a))
      else
        (* [after] is bound first: candidates x with x.point ▷ a_msg.point'
           are a transposed row at a's message *)
        rows.(pos_of.(b)) <-
          (a, bwd_sel c.before.point c.after.point) :: rows.(pos_of.(b)))
    (Forbidden.conjuncts p);
  List.iter
    (fun (g : Term.guard) ->
      let pos =
        match g with
        | Term.Same_src (x, y) | Term.Same_dst (x, y) ->
            max pos_of.(x) pos_of.(y)
        | Term.Color_is (x, _) -> pos_of.(x)
      in
      sguards.(pos) <- g :: sguards.(pos))
    (Forbidden.guards p);
  Array.init m (fun i ->
      {
        var = order.(i);
        rows = Array.of_list (List.rev rows.(i));
        self_conj = List.rev self_conj.(i);
        sguards = List.rev sguards.(i);
      })

(* Greedy most-constrained-first: repeatedly pick the unordered variable
   with the most conjunct links to already-ordered ones; ties go to the
   higher total conjunct degree, then the lower index (determinism). *)
let constrained_order p =
  let m = Forbidden.nvars p in
  let degree = Array.make m 0 in
  let links = Array.make m [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let b = c.before.var and a = c.after.var in
      degree.(b) <- degree.(b) + 1;
      if a <> b then begin
        degree.(a) <- degree.(a) + 1;
        links.(b) <- a :: links.(b);
        links.(a) <- b :: links.(a)
      end)
    (Forbidden.conjuncts p);
  let placed = Array.make m false in
  let bound_links = Array.make m 0 in
  Array.init m (fun _ ->
      let best = ref (-1) in
      for v = m - 1 downto 0 do
        if not placed.(v) then
          if
            !best < 0
            || bound_links.(v) > bound_links.(!best)
            || (bound_links.(v) = bound_links.(!best)
               && degree.(v) > degree.(!best))
          then best := v
      done;
      let v = !best in
      placed.(v) <- true;
      List.iter
        (fun w -> if not placed.(w) then bound_links.(w) <- bound_links.(w) + 1)
        links.(v);
      v)

let compile p =
  let m = Forbidden.nvars p in
  let identity = Array.init m Fun.id in
  {
    pred = p;
    m;
    lex = build_stages p identity;
    fast = build_stages p (constrained_order p);
  }

let predicate c = c.pred

let sel_index = function
  | SS -> 0
  | SR -> 1
  | RS -> 2
  | RR -> 3
  | SS_T -> 4
  | SR_T -> 5
  | RS_T -> 6
  | RR_T -> 7

(* The staged matcher over the packed int-mask rows (runs of ≤ 62
   messages, i.e. everything the enumeration kernel emits). Candidate and
   used sets are single ints; a self-conjunct is one bit test of the
   matrix diagonal — crucially {e not} an event-level [lt] query, which
   would force the lazy poset of a mask-built run. Candidates are visited
   ascending, matching the Bitset variant bit for bit. *)
let run_plan_masks plan ~m ~distinct run masks emit =
  let n = Run.Abstract.nmsgs run in
  if m = 0 then ignore (emit [||])
  else if n = 0 || (distinct && n < m) then ()
  else begin
    let full = (1 lsl n) - 1 in
    let assignment = Array.make m (-1) in
    let used = ref 0 in
    let exception Done in
    let rec go i =
      if i = m then begin
        if not (emit assignment) then raise Done
      end
      else begin
        let st = plan.(i) in
        let cand = ref (if distinct then full land lnot !used else full) in
        Array.iter
          (fun (w, s) ->
            cand := !cand land masks.((sel_index s * n) + assignment.(w)))
          st.rows;
        let cand = !cand in
        for c = 0 to n - 1 do
          if cand land (1 lsl c) <> 0 then begin
            assignment.(st.var) <- c;
            if
              List.for_all
                (fun (cj : Term.conjunct) ->
                  let k = sel_index (fwd_sel cj.before.point cj.after.point) in
                  masks.((k * n) + c) land (1 lsl c) <> 0)
                st.self_conj
              && List.for_all (guard_holds run assignment) st.sguards
            then begin
              if distinct then used := !used lor (1 lsl c);
              go (i + 1);
              if distinct then used := !used land lnot (1 lsl c)
            end
          end
        done
      end
    in
    try go 0 with Done -> ()
  end

(* The staged matcher over Bitset rows: the fallback for runs too large
   for packed masks. [emit] sees each full assignment (indexed by
   variable, not stage) and returns [true] to keep searching. *)
let run_plan_bitsets plan ~m ~distinct run emit =
  let n = Run.Abstract.nmsgs run in
  if m = 0 then ignore (emit [||])
  else if n = 0 || (distinct && n < m) then ()
  else begin
    let rel = Run.Abstract.relations run in
    let scratch = Array.init m (fun _ -> Bitset.create n) in
    let used = Bitset.create n in
    let assignment = Array.make m (-1) in
    let exception Done in
    let rec go i =
      if i = m then begin
        if not (emit assignment) then raise Done
      end
      else begin
        let st = plan.(i) in
        let cand = scratch.(i) in
        Bitset.set_all cand;
        if distinct then Bitset.diff_into ~dst:cand used;
        Array.iter
          (fun (w, s) -> Bitset.inter_into ~dst:cand (row_of rel s assignment.(w)))
          st.rows;
        Bitset.iter
          (fun c ->
            assignment.(st.var) <- c;
            if
              List.for_all (conjunct_holds run assignment) st.self_conj
              && List.for_all (guard_holds run assignment) st.sguards
            then begin
              if distinct then Bitset.add used c;
              go (i + 1);
              if distinct then Bitset.remove used c
            end)
          cand
      end
    in
    try go 0 with Done -> ()
  end

let run_plan plan ~m ~distinct run emit =
  match Run.Abstract.masks run with
  | Some masks -> run_plan_masks plan ~m ~distinct run masks emit
  | None -> run_plan_bitsets plan ~m ~distinct run emit

let search_compiled ?(distinct = true) ?(limit = max_int) c run =
  let results = ref [] in
  let count = ref 0 in
  run_plan c.lex ~m:c.m ~distinct run (fun a ->
      incr count;
      results := Array.copy a :: !results;
      !count < limit);
  List.rev !results

let find_match_c ?distinct c run =
  match search_compiled ?distinct ~limit:1 c run with
  | a :: _ -> Some a
  | [] -> None

let find_matches_c ?distinct ?(limit = 1000) c run =
  search_compiled ?distinct ~limit c run

let holds_c ?(distinct = true) c run =
  let found = ref false in
  run_plan c.fast ~m:c.m ~distinct run (fun _ ->
      found := true;
      false);
  !found

let satisfies_c ?distinct c run = not (holds_c ?distinct c run)

(* ------------------------------------------------------------------ *)
(* Default entry points: compile-and-go fast path.                    *)
(* ------------------------------------------------------------------ *)

let find_match ?distinct p run = find_match_c ?distinct (compile p) run

let find_matches ?distinct ?limit p run =
  find_matches_c ?distinct ?limit (compile p) run

let holds ?distinct p run = holds_c ?distinct (compile p) run

let satisfies ?distinct p run = satisfies_c ?distinct (compile p) run

(* ------------------------------------------------------------------ *)
(* Matching directly over a monitor's slot rows.                      *)
(* ------------------------------------------------------------------ *)

module Masked = struct
  type matcher = {
    c : compiled;
    distinct : bool;
    assignment : int array;
    mutable used : int array; (* slot set, grown to the rows' width *)
  }

  let make ?(distinct = true) c =
    { c; distinct; assignment = Array.make (max c.m 1) (-1); used = [||] }

  (* Attribute guards over plain int arrays: [-1] means unknown, and an
     unknown attribute satisfies no guard (colors and processes are
     non-negative by construction). *)
  let guard_ok ~src ~dst ~color assignment (g : Term.guard) =
    match g with
    | Term.Same_src (x, y) ->
        let a = src.(assignment.(x)) in
        a >= 0 && a = src.(assignment.(y))
    | Term.Same_dst (x, y) ->
        let a = dst.(assignment.(x)) in
        a >= 0 && a = dst.(assignment.(y))
    | Term.Color_is (x, c) -> color.(assignment.(x)) = c

  exception Found

  let bits = Monitor.word_bits

  (* a self-conjunct is one bit test of the row's diagonal: slot c is
     bit [b] of word [w] *)
  let rec self_ok (row : int array) nw w b = function
    | [] -> true
    | (cj : Term.conjunct) :: rest ->
        let k = sel_index (fwd_sel cj.before.point cj.after.point) in
        row.((k * nw) + w) land b <> 0 && self_ok row nw w b rest

  let rec guards_ok ~src ~dst ~color assignment = function
    | [] -> true
    | g :: rest ->
        guard_ok ~src ~dst ~color assignment g
        && guards_ok ~src ~dst ~color assignment rest

  (* The staged search of [run_plan_masks] over the monitor's slot rows,
     in place, between events: each stage's candidates are computed one
     word at a time and visited in ascending slot order. This is the
     per-event hot path of [Pmon], so it allocates only the witness. *)
  let find u ~live ~(rows : int array array) ~src ~dst ~color =
    let m = u.c.m and nw = Array.length live in
    if m = 0 then Some [||]
    else begin
      (* a found witness leaves its slots in [used]: start from empty *)
      if Array.length u.used < nw then u.used <- Array.make nw 0
      else
        for w = 0 to nw - 1 do
          u.used.(w) <- 0
        done;
      let plan = u.c.fast and assignment = u.assignment and used = u.used in
      let rec go i =
        if i = m then raise_notrace Found
        else begin
          let st = plan.(i) in
          let srows = st.rows in
          for w = 0 to nw - 1 do
            let cand =
              ref
                (if u.distinct then live.(w) land lnot used.(w)
                 else live.(w))
            in
            for ri = 0 to Array.length srows - 1 do
              let v, s = srows.(ri) in
              cand :=
                !cand land rows.(assignment.(v)).((sel_index s * nw) + w)
            done;
            let rest = ref !cand and c = ref (w * bits) and b = ref 1 in
            while !rest <> 0 do
              if !rest land 1 <> 0 then begin
                let c = !c and b = !b in
                assignment.(st.var) <- c;
                if
                  self_ok rows.(c) nw w b st.self_conj
                  && guards_ok ~src ~dst ~color assignment st.sguards
                then
                  if u.distinct then begin
                    used.(w) <- used.(w) lor b;
                    go (i + 1);
                    used.(w) <- used.(w) land lnot b
                  end
                  else go (i + 1)
              end;
              rest := !rest lsr 1;
              incr c;
              b := !b lsl 1
            done
          done
        end
      in
      match go 0 with
      | () -> None
      | exception Found -> Some (Array.copy assignment)
    end
end
