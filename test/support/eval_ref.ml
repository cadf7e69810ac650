(* The reference tier of the predicate evaluator and the enumerator:
   the pre-compilation backtracking interpreter and the pre-kernel
   enumerator, kept verbatim as differential oracles for
   test/test_eval_fast.ml and as the "before" arm of bench B14. Nothing
   under lib/ or bin/ links them. *)

open Mo_order
open Mo_core

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
(* Reference enumerator.                                              *)
(* ------------------------------------------------------------------ *)

(* Per-process events in canonical order: message index ascending, send
   before delivery (both only land on one process when src = dst). *)
let events_of ~nmsgs ~msgs p =
  let acc = ref [] in
  for m = nmsgs - 1 downto 0 do
    let src, dst = msgs.(m) in
    if dst = p then acc := Event.deliver m :: !acc;
    if src = p then acc := Event.send m :: !acc
  done;
  !acc

(* The pre-kernel reference enumerator: materialized per-process
   permutations, a filtered product, and a from-scratch closure per
   candidate in Run.of_sequences. Kept verbatim as the differential
   baseline for the incremental kernel (test/test_eval_fast.ml) and as the
   "before" arm of bench B14. Note the two enumerators agree on the *set*
   of runs but emit them in different orders. *)
let runs_ref ~nprocs ~msgs =
  let nmsgs = Array.length msgs in
  let per_proc =
    Array.init nprocs (fun p ->
        Enumerate.permutations (events_of ~nmsgs ~msgs p))
  in
  let acc = ref [] in
  let seq = Array.make nprocs [] in
  let rec product p =
    if p = nprocs then begin
      match Run.of_sequences ~nprocs ~msgs (Array.copy seq) with
      | Ok r -> acc := r :: !acc
      | Error _ -> ()
    end
    else
      List.iter
        (fun order ->
          seq.(p) <- order;
          product (p + 1))
        per_proc.(p)
  in
  product 0;
  List.rev !acc
