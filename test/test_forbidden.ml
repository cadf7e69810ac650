open Mo_core
open Term

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_make_validation () =
  Alcotest.check_raises "conjunct var out of range"
    (Invalid_argument "Forbidden.make: conjunct mentions x2, arity is 2")
    (fun () -> ignore (Forbidden.make ~nvars:2 [ s 0 @> s 2 ]));
  Alcotest.check_raises "guard var out of range"
    (Invalid_argument "Forbidden.make: guard mentions x5, arity is 1")
    (fun () ->
      ignore (Forbidden.make ~nvars:1 ~guards:[ Color_is (5, 0) ] []));
  (* colors are non-negative: the evaluators encode "no color" as -1, so a
     [color(x) = -1] guard would match uncoloured messages in the
     monitors and nowhere else *)
  Alcotest.check_raises "negative color"
    (Invalid_argument "Forbidden.make: negative color") (fun () ->
      ignore (Forbidden.make ~nvars:1 ~guards:[ Color_is (0, -1) ] []))

let test_dedup () =
  let p = Forbidden.make ~nvars:2 [ s 0 @> s 1; s 0 @> s 1; r 1 @> r 0 ] in
  check_int "conjuncts deduplicated" 2 (List.length (Forbidden.conjuncts p));
  let g =
    Forbidden.make ~nvars:2
      ~guards:[ Same_src (0, 1); Same_src (1, 0); Color_is (0, 2) ]
      []
  in
  (* Same_src is symmetric: (0,1) and (1,0) are the same guard *)
  check_int "guards deduplicated" 2 (List.length (Forbidden.guards g))

let test_simplify_tautology () =
  let p = Forbidden.make ~nvars:2 [ s 0 @> r 0; s 0 @> s 1 ] in
  match Forbidden.simplify p with
  | Forbidden.Simplified q ->
      check_int "tautology dropped" 1 (List.length (Forbidden.conjuncts q))
  | Forbidden.Unsatisfiable -> Alcotest.fail "not unsatisfiable"

let test_simplify_contradiction () =
  List.iter
    (fun c ->
      match Forbidden.simplify (Forbidden.make ~nvars:1 [ c ]) with
      | Forbidden.Unsatisfiable -> ()
      | Forbidden.Simplified _ -> Alcotest.fail "contradiction not detected")
    [ r 0 @> s 0; s 0 @> s 0; r 0 @> r 0 ]

let test_rename () =
  let p =
    Forbidden.make ~nvars:3
      ~guards:[ Same_src (0, 2); Color_is (1, 9) ]
      [ s 0 @> s 2; s 1 @> r 0; r 2 @> r 0 ]
  in
  let q = Forbidden.rename p ~keep:[ 0; 2 ] in
  check_int "arity" 2 (Forbidden.nvars q);
  (* conjuncts mentioning x1 dropped; x2 renumbered to 1 *)
  check_int "conjuncts" 2 (List.length (Forbidden.conjuncts q));
  check_bool "guard kept" true
    (List.exists
       (fun g -> Term.guard_equal g (Same_src (0, 1)))
       (Forbidden.guards q));
  check_int "color guard dropped" 1 (List.length (Forbidden.guards q))

let test_equal () =
  let a = Forbidden.make ~nvars:2 [ s 0 @> s 1; r 1 @> r 0 ] in
  let b = Forbidden.make ~nvars:2 [ r 1 @> r 0; s 0 @> s 1 ] in
  check_bool "order-insensitive" true (Forbidden.equal a b);
  let c = Forbidden.make ~nvars:2 [ s 0 @> s 1 ] in
  check_bool "different" false (Forbidden.equal a c)

let test_pp () =
  let p = Forbidden.make ~nvars:2 [ s 0 @> s 1; r 1 @> r 0 ] in
  check_str "pp" "x0.s < x1.s & x1.r < x0.r" (Forbidden.to_string p);
  let g =
    Forbidden.make ~nvars:2 ~guards:[ Same_src (0, 1) ] [ s 0 @> s 1 ]
  in
  check_str "pp guards" "x0.s < x1.s & src(x0) = src(x1)"
    (Forbidden.to_string g);
  check_str "empty" "true" (Forbidden.to_string (Forbidden.make ~nvars:0 []))

let test_is_guarded () =
  check_bool "unguarded" false
    (Forbidden.is_guarded (Forbidden.make ~nvars:2 [ s 0 @> s 1 ]));
  check_bool "guarded" true (Forbidden.is_guarded Catalog.fifo.Catalog.pred)

let () =
  Alcotest.run "forbidden"
    [
      ( "unit",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "simplify tautology" `Quick
            test_simplify_tautology;
          Alcotest.test_case "simplify contradiction" `Quick
            test_simplify_contradiction;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "pp" `Quick test_pp;
          Alcotest.test_case "is_guarded" `Quick test_is_guarded;
        ] );
    ]
