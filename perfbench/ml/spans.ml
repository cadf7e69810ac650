(* In-memory spans for the traced run.

   A span is a name, the span that caused it, and its start and end.
   Spans are opened and closed on the main domain around calls into one
   layer's public functions, kept in memory while the run lasts, and
   written out once at the end. *)

type span = { name : string; parent : int; t0 : float; mutable t1 : float }

let dummy = { name = ""; parent = -1; t0 = 0.; t1 = 0. }
let spans = ref (Array.make 4096 dummy)
let count = ref 0
let current = ref (-1)

let push s =
  if !count = Array.length !spans then begin
    let b = Array.make (2 * !count) dummy in
    Array.blit !spans 0 b 0 !count;
    spans := b
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_span name f =
  let parent = !current in
  let id = push { name; parent; t0 = Common.now (); t1 = nan } in
  current := id;
  let close () =
    !spans.(id).t1 <- Common.now ();
    current := parent
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let duration s = s.t1 -. s.t0

(* Durations of every span called [name]. *)
let durations name =
  let out = Common.Samples.create () in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name then Common.Samples.add out (duration s)
  done;
  Common.Samples.to_array out

let median_of name = Common.median (durations name)

(* One line per span: id, parent, name, start and end in seconds. *)
let write path =
  let oc = open_out path in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" i s.parent s.name s.t0 s.t1
  done;
  close_out oc

(* A span whose interval was measured by the caller (overlapping
   requests on several connections do not nest). *)
let record name t0 t1 = ignore (push { name; parent = -1; t0; t1 })
