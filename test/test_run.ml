open Mo_order

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The FIFO scenario of Figure 2/4: two messages P0 -> P1, delivered in
   sending order. *)
let fifo_run () =
  match
    Run.of_schedule ~nprocs:2
      ~msgs:[| (0, 1); (0, 1) |]
      [ Run.Do_send 0; Run.Do_send 1; Run.Do_deliver 0; Run.Do_deliver 1 ]
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_schedule_basic () =
  let r = fifo_run () in
  check_int "nprocs" 2 (Run.nprocs r);
  check_int "nmsgs" 2 (Run.nmsgs r);
  check_int "src" 0 (Run.msg_src r 0);
  check_int "dst" 1 (Run.msg_dst r 1);
  check_bool "s0 < r0" true (Run.lt r (Event.send 0) (Event.deliver 0));
  check_bool "s0 < s1" true (Run.lt r (Event.send 0) (Event.send 1));
  (* in the user view, s1 and r0 are concurrent: the ordering a FIFO
     implementation sees via the receive event (Figure 4) is not visible
     here *)
  check_bool "s1 concurrent with r0" true
    (Run.concurrent r (Event.send 1) (Event.deliver 0));
  check_bool "s0 < r1" true (Run.lt r (Event.send 0) (Event.deliver 1));
  check_bool "r0 < r1" true (Run.lt r (Event.deliver 0) (Event.deliver 1))

let test_schedule_errors () =
  let msgs = [| (0, 1) |] in
  (match Run.of_schedule ~nprocs:2 ~msgs [ Run.Do_deliver 0; Run.Do_send 0 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deliver before send accepted");
  (match Run.of_schedule ~nprocs:2 ~msgs [ Run.Do_send 0 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete run accepted");
  match Run.of_schedule ~nprocs:2 ~msgs [ Run.Do_send 5; Run.Do_deliver 5 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown message accepted"

let test_sequences_validation () =
  let msgs = [| (0, 1) |] in
  (* send placed on the wrong process *)
  (match
     Run.of_sequences ~nprocs:2 ~msgs
       [| [ Event.deliver 0 ]; [ Event.send 0 ] |]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "misplaced events accepted");
  (* duplicate event *)
  (match
     Run.of_sequences ~nprocs:2 ~msgs
       [| [ Event.send 0; Event.send 0 ]; [ Event.deliver 0 ] |]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate accepted");
  (* valid *)
  match
    Run.of_sequences ~nprocs:2 ~msgs
      [| [ Event.send 0 ]; [ Event.deliver 0 ] |]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_concurrent () =
  (* two messages crossing between P0 and P1 *)
  match
    Run.of_sequences ~nprocs:2
      ~msgs:[| (0, 1); (1, 0) |]
      [|
        [ Event.send 0; Event.deliver 1 ]; [ Event.send 1; Event.deliver 0 ];
      |]
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_bool "sends concurrent" true
        (Run.concurrent r (Event.send 0) (Event.send 1));
      (* r1 follows s0 on P0's sequence *)
      check_bool "s0 < r1 via process order" true
        (Run.lt r (Event.send 0) (Event.deliver 1));
      check_bool "r1 not before s0" false
        (Run.lt r (Event.deliver 1) (Event.send 0))

let test_to_abstract () =
  let r = fifo_run () in
  let a = Run.to_abstract r in
  check_int "nmsgs" 2 (Run.Abstract.nmsgs a);
  check_bool "same relation s0<r1" true
    (Run.Abstract.lt a (Event.send 0) (Event.deliver 1));
  check_bool "same relation s1||r0" true
    (Run.Abstract.concurrent a (Event.send 1) (Event.deliver 0));
  let attrs = Run.Abstract.attrs a 0 in
  check_bool "src attr" true (attrs.Run.src = Some 0);
  check_bool "dst attr" true (attrs.Run.dst = Some 1);
  check_bool "no color" true (attrs.Run.color = None)

let test_colors_preserved () =
  match
    Run.of_schedule ~nprocs:2
      ~msgs:[| (0, 1) |]
      ~colors:[| Some 4 |]
      [ Run.Do_send 0; Run.Do_deliver 0 ]
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let a = Run.to_abstract r in
      check_bool "color attr" true ((Run.Abstract.attrs a 0).Run.color = Some 4)

let test_abstract_create () =
  (* implicit s < r edge *)
  let a = Run.Abstract.create_exn ~nmsgs:1 [] in
  check_bool "s<r implicit" true
    (Run.Abstract.lt a (Event.send 0) (Event.deliver 0));
  (* cyclic edges rejected *)
  check_bool "cycle None" true
    (Run.Abstract.create ~nmsgs:1 [ (Event.deliver 0, Event.send 0) ] = None);
  (* attributes are non-negative: the rows encode "unknown" as -1 *)
  List.iter
    (fun (what, attrs) ->
      Alcotest.check_raises what
        (Invalid_argument ("Run.Abstract: negative " ^ what ^ " attribute"))
        (fun () ->
          ignore (Run.Abstract.create ~nmsgs:1 ~attrs:[| attrs |] [])))
    [
      ("src", { Run.no_attrs with Run.src = Some (-1) });
      ("dst", { Run.no_attrs with Run.dst = Some (-2) });
      ("color", Run.attrs_known ~src:0 ~dst:1 ~color:(-1) ());
    ];
  Alcotest.check_raises "negative color in a concrete run"
    (Invalid_argument "Run.of_sequences: negative color") (fun () ->
      ignore
        (Run.of_sequences ~nprocs:2 ~msgs:[| (0, 1) |] ~colors:[| Some (-1) |]
           [| [ Event.send 0 ]; [ Event.deliver 0 ] |]))

let test_message_graph () =
  (* crown: x0.s < x1.r and x1.s < x0.r gives a 2-cycle *)
  let a =
    Run.Abstract.create_exn ~nmsgs:2
      [
        (Event.send 0, Event.deliver 1); (Event.send 1, Event.deliver 0);
      ]
  in
  let mg = List.sort compare (Run.Abstract.message_graph a) in
  Alcotest.(check (list (pair int int))) "crown graph" [ (0, 1); (1, 0) ] mg

let test_abstract_equal () =
  let a = Run.Abstract.create_exn ~nmsgs:2 [ (Event.send 0, Event.send 1) ] in
  let b =
    Run.Abstract.create_exn ~nmsgs:2
      [ (Event.send 0, Event.send 1); (Event.send 0, Event.deliver 1) ]
  in
  (* the second edge is implied: s0 < s1 < r1 *)
  check_bool "equal up to closure" true (Run.Abstract.equal a b);
  let c = Run.Abstract.create_exn ~nmsgs:2 [] in
  check_bool "different" false (Run.Abstract.equal a c)

(* round-trip: every enumerated concrete run's abstract projection keeps
   exactly the same happened-before relation on user events *)
let prop_projection_faithful =
  QCheck.Test.make ~name:"to_abstract preserves happened-before" ~count:50
    (QCheck.make (QCheck.Gen.oneofl (Enumerate.all_runs ~nprocs:2 ~nmsgs:2 ())))
    (fun r ->
      let a = Run.to_abstract r in
      let events = List.init (2 * Run.nmsgs r) Event.decode in
      List.for_all
        (fun h ->
          List.for_all
            (fun g -> Run.lt r h g = Run.Abstract.lt a h g)
            events)
        events)

let () =
  Alcotest.run "run"
    [
      ( "unit",
        [
          Alcotest.test_case "schedule basic" `Quick test_schedule_basic;
          Alcotest.test_case "schedule errors" `Quick test_schedule_errors;
          Alcotest.test_case "sequence validation" `Quick
            test_sequences_validation;
          Alcotest.test_case "concurrency" `Quick test_concurrent;
          Alcotest.test_case "to_abstract" `Quick test_to_abstract;
          Alcotest.test_case "colors preserved" `Quick test_colors_preserved;
          Alcotest.test_case "abstract create" `Quick test_abstract_create;
          Alcotest.test_case "message graph" `Quick test_message_graph;
          Alcotest.test_case "abstract equal" `Quick test_abstract_equal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_projection_faithful ] );
    ]
