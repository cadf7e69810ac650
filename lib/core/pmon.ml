open Mo_order

type verdict = { at : int; witness : int array }

type t = {
  mon : Monitor.t;
  matcher : Eval.Masked.matcher;
  mutable verdict : verdict option;
}

let create ?window ?distinct ~nprocs c =
  {
    mon = Monitor.create ?window ~nprocs ();
    matcher = Eval.Masked.make ?distinct c;
    verdict = None;
  }

let exact ?distinct c run =
  let nmsgs = Run.nmsgs run in
  if nmsgs > Monitor.max_window then
    invalid_arg "Pmon.exact: run exceeds the monitor window";
  create ~window:(max nmsgs 1) ?distinct ~nprocs:(Run.nprocs run) c

let verdict t = t.verdict

let monitor t = t.mon

(* evaluate the predicate over the frontier; the first match is final *)
let check t =
  (match t.verdict with
  | Some _ -> ()
  | None -> (
      let mon = t.mon in
      match
        Eval.Masked.find t.matcher ~live:(Monitor.live mon)
          ~rows:(Monitor.rows mon) ~src:(Monitor.slot_src mon)
          ~dst:(Monitor.slot_dst mon) ~color:(Monitor.slot_color mon)
      with
      | None -> ()
      | Some a ->
          let witness = Array.map (Monitor.slot_msg mon) a in
          t.verdict <- Some { at = Monitor.events mon - 1; witness }));
  t.verdict

let send t ~msg ~src ~dst ?color () =
  Monitor.send t.mon ~msg ~src ~dst ?color ();
  check t

let deliver t ~msg =
  Monitor.deliver t.mon ~msg;
  check t

let feed_events t run events =
  List.iter
    (fun (e : Event.t) ->
      match e.point with
      | Event.S ->
          ignore
            (send t ~msg:e.msg ~src:(Run.msg_src run e.msg)
               ~dst:(Run.msg_dst run e.msg)
               ?color:(Run.msg_color run e.msg) ())
      | Event.R -> ignore (deliver t ~msg:e.msg))
    events;
  t.verdict

let feed_run ?distinct c run =
  feed_events (exact ?distinct c run) run (Run.linearize run)
