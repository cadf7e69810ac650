(* The request streams of the two service workloads, generated from the
   seed, with what a correct answer must say.

   svc-hot: B13's four small catalog shapes, each under 16 random
   alpha-renamings (64 frames, 4 canonical digests). Their verdicts are
   pinned by hand from the paper's catalog.

   svc-cold: requests the daemon has never seen, so that every one
   misses the cache: random predicates (8 variables, 16 conjuncts, plain
   and guarded), one in eight a random 8-cycle, one in eight an
   [implies], and every 512th a [lattice] placement; four fully
   symmetric 8-cycles sit at fixed slots (see [symmetric_slots]). Expected answers are
   computed here, in set-up, from the original (uncanonicalized)
   predicates: the classifier's verdict, both implication directions,
   and |X_B| from the symmetry-quotiented placement, which the daemon's
   concrete placement must reproduce. *)

open Mo_core
module C = Mo_service.Codec
module J = Mo_obs.Jsonb

type expect =
  | Verdict of string
  | Implies of bool * bool
  | Lattice of int  (** |X_B| over the 125,768-run universe *)

type request = { req : C.request; frame : string; expect : expect }

let encode id req =
  Wire.frame
    (J.to_string (C.request_to_json { C.id; deadline_ms = None; req }))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A random alpha-renaming: permute variables, conjunct and guard order. *)
let rename rng p =
  let n = Forbidden.nvars p in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let ep (e : Term.endpoint) = { e with Term.var = perm.(e.Term.var) } in
  let conjuncts =
    Array.of_list
      (List.map
         (fun (c : Term.conjunct) -> Term.(ep c.Term.before @> ep c.Term.after))
         (Forbidden.conjuncts p))
  in
  let guards =
    Array.of_list
      (List.map
         (function
           | Term.Same_src (x, y) -> Term.Same_src (perm.(x), perm.(y))
           | Term.Same_dst (x, y) -> Term.Same_dst (perm.(x), perm.(y))
           | Term.Color_is (x, c) -> Term.Color_is (perm.(x), c))
         (Forbidden.guards p))
  in
  shuffle rng conjuncts;
  shuffle rng guards;
  Forbidden.make ~nvars:n ~guards:(Array.to_list guards)
    (Array.to_list conjuncts)

(* causal overtaking, FIFO, the 2-crown, an order-0 3-cycle *)
let hot_shapes =
  [
    ("x.s < y.s & y.r < x.r", "tagged");
    ("x.s < y.s & y.r < x.r & src(x) = src(y)", "tagged");
    ("x.s < y.r & y.s < x.r", "general");
    ("x.r < y.s & y.r < z.s & z.r < x.s", "tagless");
  ]

let hot_renamings = 16

let hot ~seed =
  let rng = Mo_par.rng ~seed ~stream:1 in
  let shapes =
    List.map (fun (s, v) -> (Parse.predicate_exn s, v)) hot_shapes
  in
  Array.of_list
    (List.mapi
       (fun i (p, v) ->
         let req = C.Classify (rename rng p) in
         { req; frame = encode i req; expect = Verdict v })
       (List.concat_map
          (fun _ -> shapes)
          (List.init hot_renamings Fun.id)))

let lattice_every = 512

(* A request travels as text, which names only the variables its
   conjuncts and guards use: take each generated predicate through the
   text syntax, so the expectation is computed on exactly what the
   daemon receives. *)
let as_sent p = Parse.predicate_exn (Forbidden.to_string p)

let random ~guarded ~max_vars ~max_conjuncts s =
  as_sent
    (if guarded then
       Mo_workload.Random_pred.guarded_predicate ~max_vars ~max_conjuncts
         ~seed:s ()
     else Mo_workload.Random_pred.predicate ~max_vars ~max_conjuncts ~seed:s ())

(* The 8-cycle whose conjuncts all read [x_i.p < x_(i+1).q]. Every
   variable looks alike to the canonicalizer, so it searches all 8!
   orders: one such request allocates ~22M words. [cyclic_predicate]
   draws one about once in 16k; four sit at fixed slots of every stream
   so that each run, whatever its seed, pays for them once. *)
let symmetric_slots = [| 3; 1003; 2003; 3003 |]

let symmetric_cycle j =
  let open Mo_order.Event in
  let p, q = [| (R, S); (S, S); (S, R); (R, R) |].(j) in
  Forbidden.make ~nvars:8
    (List.init 8 (fun v ->
         Term.({ var = v; point = p } @> { var = (v + 1) mod 8; point = q })))

(* The [k]-th candidate for slot [i], and its cache key as the daemon
   forms it (digest, and kmax for lattice). *)
let candidate ~seed i k =
  let s = (seed * 1_000_003) + (i * 97) + k in
  let big = random ~max_vars:8 ~max_conjuncts:16 in
  let sym = ref None in
  Array.iteri (fun j x -> if x = i then sym := Some j) symmetric_slots;
  let sym = !sym in
  if k = 0 && Option.is_some sym then
    let p = as_sent (symmetric_cycle (Option.get sym)) in
    (C.Classify p, "c:" ^ Canon.digest p)
  else if i mod lattice_every = lattice_every - 1 then
    let p = random ~guarded:false ~max_vars:3 ~max_conjuncts:4 s in
    (C.Lattice (p, None), "l:" ^ Canon.digest p)
  else
    match i mod 8 with
    | 3 ->
        let p =
          as_sent (Mo_workload.Random_pred.cyclic_predicate ~nvars:8 ~seed:s)
        in
        (C.Classify p, "c:" ^ Canon.digest p)
    | 6 ->
        let a = big ~guarded:false s
        and b = big ~guarded:false (s + 500_000_000) in
        (C.Implies (a, b), "i:" ^ Canon.digest a ^ ":" ^ Canon.digest b)
    | j ->
        let p = big ~guarded:(j mod 2 = 0) s in
        (C.Classify p, "c:" ^ Canon.digest p)

(* Slot [i]'s request: the first candidate whose cache key is new. *)
let cold_req ~seen ~seed i =
  let rec go k =
    let req, key = candidate ~seed i k in
    if Hashtbl.mem seen key then go (k + 1)
    else begin
      Hashtbl.replace seen key ();
      req
    end
  in
  go 0

let expect_of ~pool = function
  | C.Classify p ->
      Verdict (Classify.verdict_to_string (Classify.classify p).Classify.verdict)
  | C.Implies (a, b) -> Implies (Implies.check a b, Implies.check b a)
  | C.Lattice (p, _) ->
      Lattice
        (Modelcheck.placement ~pool ~sym:true ~sizes:Modelcheck.universe_sizes
           p)
          .Modelcheck.p_spec
  | _ -> invalid_arg "expect_of"

let cold ~seed ~n =
  let seen = Hashtbl.create (2 * n) in
  let pool = Mo_par.Pool.create ~jobs:1 () in
  Array.init n (fun i ->
      let req = cold_req ~seen ~seed i in
      { req; frame = encode i req; expect = expect_of ~pool req })

let lattice_runs = 125_768

(* Check one response payload against its request id and expectation. *)
let check ~id expect payload =
  match J.of_string payload with
  | Ok (J.Obj top as resp) when List.assoc_opt "id" top = Some (J.Int id) -> (
      match C.result_of_response resp with
      | Error _ -> false
      | Ok (J.Obj fields) -> (
          let field k = List.assoc_opt k fields in
          match expect with
          | Verdict v -> field "verdict" = Some (J.String v)
          | Implies (f, b) ->
              field "forward" = Some (J.Bool f)
              && field "backward" = Some (J.Bool b)
          | Lattice m ->
              field "spec_members" = Some (J.Int m)
              && field "runs" = Some (J.Int lattice_runs))
      | Ok _ -> false)
  | Ok _ | Error _ -> false

let digest reqs =
  Common.digest_strings (Array.to_list (Array.map (fun r -> r.frame) reqs))
