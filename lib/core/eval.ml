open Mo_order

(* ------------------------------------------------------------------ *)
(* Compiled evaluator.                                                *)
(*                                                                    *)
(* A predicate compiles once into staged matching plans over relation *)
(* rows in the Run.Abstract.rows layout — a run's, or a monitor's     *)
(* must-relation rows, which share it. At each stage the candidate    *)
(* set for the stage's variable starts as the live set (minus used    *)
(* messages under distinctness) and is narrowed by intersecting one   *)
(* row section per binary conjunct linking it to an already-bound     *)
(* variable; only same-variable conjuncts and guards remain as        *)
(* per-candidate scalar checks. Two plans are kept:                   *)
(*                                                                    *)
(* - [lex]: identity variable order. Pruning only removes candidates  *)
(*   a plain backtracking interpreter would reject at the same stage, *)
(*   so matches stream out in lexicographic order.                    *)
(* - [fast]: most-constrained-variable-first order (greedy: most      *)
(*   conjunct links to already-ordered variables, then highest        *)
(*   degree). Used for the boolean queries, where only existence      *)
(*   matters and tighter early stages prune best.                     *)
(* ------------------------------------------------------------------ *)

type cstage = {
  var : int;
  links : int array; (* the bound variable of each binary conjunct *)
  secs : int array; (* the row section that conjunct intersects *)
  self_secs : int array; (* forward section per same-variable conjunct *)
  sguards : Term.guard list; (* guards whose last variable is this one *)
}

type compiled = { lex : cstage array; fast : cstage array }

(* relation sections, in Run.Abstract.rows order: ss sr rs rr forward
   (bit y of x's row: x.p ▷ y.q), then the four transposes *)
let fwd_sec (b : Event.point) (a : Event.point) =
  (match b with Event.S -> 0 | Event.R -> 2)
  + match a with Event.S -> 0 | Event.R -> 1

let bwd_sec b a = 4 + fwd_sec b a

let build_stages p order =
  let m = Forbidden.nvars p in
  let pos_of = Array.make m 0 in
  Array.iteri (fun i v -> pos_of.(v) <- i) order;
  let links = Array.make m [] in
  let self_secs = Array.make m [] in
  let sguards = Array.make m [] in
  List.iter
    (fun (c : Term.conjunct) ->
      let b = c.before.var and a = c.after.var in
      if b = a then
        self_secs.(pos_of.(b)) <-
          fwd_sec c.before.point c.after.point :: self_secs.(pos_of.(b))
      else if pos_of.(b) < pos_of.(a) then
        (* [before] is bound when [after] is being chosen: candidates y
           with b_msg.point ▷ y.point' are a forward section at b's
           message *)
        links.(pos_of.(a)) <-
          (b, fwd_sec c.before.point c.after.point) :: links.(pos_of.(a))
      else
        (* [after] is bound first: candidates x with x.point ▷ a_msg.point'
           are a transposed section at a's message *)
        links.(pos_of.(b)) <-
          (a, bwd_sec c.before.point c.after.point) :: links.(pos_of.(b)))
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
      let l = Array.of_list (List.rev links.(i)) in
      {
        var = order.(i);
        links = Array.map fst l;
        secs = Array.map snd l;
        self_secs = Array.of_list (List.rev self_secs.(i));
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
  {
    lex = build_stages p (Array.init (Forbidden.nvars p) Fun.id);
    fast = build_stages p (constrained_order p);
  }

(* Attribute guards over per-message int arrays: [-1] means unknown, and
   an unknown attribute satisfies no guard (colors and processes are
   non-negative: Forbidden.make and Run.Abstract.create reject negative
   ones). *)
let guard_ok ~src ~dst ~color assignment (g : Term.guard) =
  match g with
  | Term.Same_src (x, y) ->
      let a = src.(assignment.(x)) in
      a >= 0 && a = src.(assignment.(y))
  | Term.Same_dst (x, y) ->
      let a = dst.(assignment.(x)) in
      a >= 0 && a = dst.(assignment.(y))
  | Term.Color_is (x, c) -> color.(assignment.(x)) = c

let rec guards_ok ~src ~dst ~color assignment = function
  | [] -> true
  | g :: rest ->
      guard_ok ~src ~dst ~color assignment g
      && guards_ok ~src ~dst ~color assignment rest

(* a self-conjunct is one bit test of the row's diagonal: message c is
   bit [b] of word [w] *)
let self_ok (row : int array) nw w b secs =
  let ok = ref true in
  for i = 0 to Array.length secs - 1 do
    if row.((secs.(i) * nw) + w) land b = 0 then ok := false
  done;
  !ok

exception Stop

(* The staged search, once for runs and monitors alike. [live] is the
   candidate universe ([nw] words), [rows] the relation rows,
   [src]/[dst]/[color] the per-message attributes; [used] (at least [nw]
   words) and [assignment] (at least [m] ints) are scratch.
   Each stage's candidates are computed one word at a time and visited
   in ascending index order. [emit] sees each full assignment (indexed
   by variable, not stage) and returns [true] to keep searching; the
   result is whether it stopped the search, in which case [assignment]
   holds the last match. *)
let search plan ~distinct ~used ~assignment ~live ~(rows : int array array)
    ~src ~dst ~color emit =
  let m = Array.length plan and nw = Array.length live in
  Array.fill used 0 nw 0;
  let rec go i =
    if i = m then begin
      if not (emit assignment) then raise_notrace Stop
    end
    else begin
      let st = plan.(i) in
      let links = st.links and secs = st.secs in
      for w = 0 to nw - 1 do
        let cand =
          ref (if distinct then live.(w) land lnot used.(w) else live.(w))
        in
        for j = 0 to Array.length links - 1 do
          cand :=
            !cand land rows.(assignment.(links.(j))).((secs.(j) * nw) + w)
        done;
        let rest = ref !cand
        and c = ref (w * Run.Abstract.word_bits)
        and b = ref 1 in
        while !rest <> 0 do
          if !rest land 1 <> 0 then begin
            let c = !c and b = !b in
            assignment.(st.var) <- c;
            if
              self_ok rows.(c) nw w b st.self_secs
              && guards_ok ~src ~dst ~color assignment st.sguards
            then
              if distinct then begin
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
  match go 0 with () -> false | exception Stop -> true

let run_search plan ~distinct run emit =
  let { Run.Abstract.nmsgs; live; src; dst; color } =
    Run.Abstract.shape run
  in
  let m = Array.length plan in
  if distinct && nmsgs < m then false
  else
    search plan ~distinct
      ~used:(Array.make (Array.length live) 0)
      ~assignment:(Array.make m (-1))
      ~live ~rows:(Run.Abstract.rows run) ~src ~dst ~color emit

let find_matches_c ?(distinct = true) ?(limit = 1000) c run =
  let results = ref [] and count = ref 0 in
  ignore
    (run_search c.lex ~distinct run (fun a ->
         incr count;
         results := Array.copy a :: !results;
         !count < limit));
  List.rev !results

let find_match_c ?distinct c run =
  match find_matches_c ?distinct ~limit:1 c run with
  | a :: _ -> Some a
  | [] -> None

let stop _ = false

let holds_c ?(distinct = true) c run = run_search c.fast ~distinct run stop

let satisfies_c ?distinct c run = not (holds_c ?distinct c run)

let check_assignment p run assignment =
  if Array.length assignment <> Forbidden.nvars p then
    invalid_arg "Eval.check_assignment: arity mismatch";
  let { Run.Abstract.live; src; dst; color; _ } = Run.Abstract.shape run in
  let rows = Run.Abstract.rows run and nw = Array.length live in
  let bit x k y =
    rows.(x).((k * nw) + (y / Run.Abstract.word_bits))
    land (1 lsl (y mod Run.Abstract.word_bits))
    <> 0
  in
  List.for_all
    (fun (c : Term.conjunct) ->
      bit
        assignment.(c.before.var)
        (fwd_sec c.before.point c.after.point)
        assignment.(c.after.var))
    (Forbidden.conjuncts p)
  && guards_ok ~src ~dst ~color assignment (Forbidden.guards p)

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
    plan : cstage array;
    distinct : bool;
    assignment : int array;
    mutable used : int array; (* slot set, grown to the rows' width *)
  }

  let make ?(distinct = true) c =
    {
      plan = c.fast;
      distinct;
      assignment = Array.make (Array.length c.fast) (-1);
      used = [||];
    }

  (* The per-event hot path of Pmon: the shared search in place, between
     events, allocating only the witness. *)
  let find u ~live ~rows ~src ~dst ~color =
    let nw = Array.length live in
    if Array.length u.used < nw then u.used <- Array.make nw 0;
    if
      search u.plan ~distinct:u.distinct ~used:u.used
        ~assignment:u.assignment ~live ~rows ~src ~dst ~color stop
    then Some (Array.copy u.assignment)
    else None
end
