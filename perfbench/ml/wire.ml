(* The generator's side of mopcd: the daemon process and raw connections.

   Frames are written and read here byte for byte ([<len>\n<json>\n])
   rather than through the library's client, so that the load generator's
   own cost does not move when the program's codec changes. Every daemon
   started is recorded in [children] and killed and reaped on every exit
   path (see [kill_all], registered with [at_exit] by the entry point). *)

let children : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let forget pid = children := List.filter (( <> ) pid) !children

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children;
  children := []

type daemon = { pid : int; sock : string; banner : Unix.file_descr }

let read_line_timeout fd ~timeout =
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let deadline = Common.now () +. timeout in
  let rec go () =
    let left = deadline -. Common.now () in
    if left <= 0. then failwith "mopcd did not report ready in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
        if Unix.read fd b 0 1 = 0 then failwith "mopcd exited before ready"
        else if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_bytes buf b;
          go ()
        end
  in
  go ()

(* Start [exe] at its default settings on a private socket and wait for
   its ready line. *)
let start ~exe ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (sock ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process exe [| exe; "--socket"; sock |] devnull w log
  in
  children := pid :: !children;
  List.iter Unix.close [ w; devnull; log ];
  (* the read end stays open until the daemon is reaped: its shutdown
     line must not hit a closed pipe *)
  let line = read_line_timeout r ~timeout:30. in
  if not (String.starts_with ~prefix:"mopcd: listening" line) then
    failwith ("unexpected mopcd banner: " ^ line);
  { pid; sock; banner = r }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Common.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap d.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  forget d.pid;
  Unix.close d.banner;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ d.sock; d.sock ^ ".log" ]

let frame payload = Printf.sprintf "%d\n%s\n" (String.length payload) payload

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let connect sock =
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when attempt < 200 ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go (attempt + 1)
  in
  go 0

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done

(* Read what the socket has; [false] at end of stream. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  c.hi <- c.hi + n;
  n > 0

(* The next whole frame's payload already buffered, if any. *)
let next_frame c =
  match Bytes.index_from_opt c.buf c.lo '\n' with
  | Some nl when nl < c.hi ->
      let len =
        match int_of_string_opt (Bytes.sub_string c.buf c.lo (nl - c.lo)) with
        | Some n when n >= 0 -> n
        | _ -> failwith "malformed frame header from mopcd"
      in
      if c.hi - (nl + 1) < len + 1 then None
      else begin
        let payload = Bytes.sub_string c.buf (nl + 1) len in
        c.lo <- nl + 1 + len + 1;
        Some payload
      end
  | _ -> None

(* One blocking round trip. *)
let call c frame_bytes =
  send c frame_bytes;
  let rec go () =
    match next_frame c with
    | Some p -> p
    | None -> if fill c then go () else failwith "mopcd closed the connection"
  in
  go ()
