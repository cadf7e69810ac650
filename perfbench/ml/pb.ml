(* Entry point of the benchmark's OCaml half; run.py builds and calls it.

     pb.exe WORKLOAD --seed N --seconds S --mopcd PATH [--trace]
     pb.exe host

   WORKLOAD is svc-hot, svc-cold or monitor (verify runs the mopc CLI
   from run.py; with --trace any of the four names is accepted). Without --trace it measures
   the workload end to end and prints two lines: a detail record, then
   the result. With --trace it replays the seeded inputs through each
   layer's public functions instead (see Census) and prints the
   per-layer metrics. *)

let () =
  (* a handler, not Signal_ignore: an ignored signal would stay ignored
     in the daemons started from here *)
  Sys.set_signal Sys.sigpipe (Sys.Signal_handle ignore);
  at_exit Wire.kill_all;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let mopcd = ref "" and trace = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--mopcd", Arg.Set_string mopcd, "PATH  the daemon binary");
      ("--trace", Arg.Set trace, " per-layer run");
    ]
    (fun w -> workload := w)
    "pb.exe WORKLOAD --seed N --seconds S --mopcd PATH [--trace]";
  (try Unix.mkdir ".bench_build/run" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seed = !seed and seconds = !seconds and mopcd = !mopcd in
  if !workload = "host" then print_endline (Common.to_string (Common.host_json ()))
  else if !trace then
    print_endline
      (Common.to_string
         (Common.result_json (Census.run ~workload:!workload ~seed ~mopcd)))
  else begin
    let r =
      match !workload with
      | "svc-hot" -> Svc.workload ~mode:Svc.Hot ~seed ~seconds ~mopcd
      | "svc-cold" -> Svc.workload ~mode:Svc.Cold ~seed ~seconds ~mopcd
      | "monitor" -> Mon.workload ~seed ~seconds
      | w ->
          prerr_endline ("pb: unknown workload " ^ w);
          exit 2
    in
    print_endline
      (Common.to_string
         (Mo_obs.Jsonb.Obj
            [
              ("host", Common.host_json ());
              ("detail", Mo_obs.Jsonb.Obj r.Common.detail);
            ]));
    print_endline (Common.to_string (Common.result_json r))
  end
