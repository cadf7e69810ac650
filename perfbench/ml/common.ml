(* Clocks, sample statistics, process memory and result assembly shared
   by every workload of the benchmark. *)

module J = Mo_obs.Jsonb

(* Seconds on the monotonic clock, with nanosecond resolution: the layer
   spans are often shorter than a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A growable buffer of float samples: latencies, per-key walls. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Quantile by linear interpolation between closest ranks (the
   "inclusive" method): exact on every sample count, no bucketing. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* Time [f] [k] times and return the median wall and the last result. *)
let median_of ~k f =
  let walls = Array.make k 0. in
  let last = ref None in
  for i = 0 to k - 1 do
    let t0 = now () in
    last := Some (f ());
    walls.(i) <- now () -. t0
  done;
  (median walls, Option.get !last)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      let kb =
        List.find_map
          (fun line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" Option.some
            else None)
          (String.split_on_char '\n' s)
      in
      (match kb with Some kb -> float_of_int kb /. 1024. | None -> nan)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Digest of the generated inputs, printed so that two runs can be shown
   to have fed the program identical bytes. *)
let digest_strings parts =
  let ctx = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string ctx (Digest.string s);
      if Buffer.length ctx > 1 lsl 20 then begin
        let d = Digest.string (Buffer.contents ctx) in
        Buffer.clear ctx;
        Buffer.add_string ctx d
      end)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents ctx))

(* JSON text with every digit of every float (Jsonb keeps six); a
   non-finite number, which JSON cannot carry, becomes null. *)
let rec render buf (v : J.t) =
  let add = Buffer.add_string buf in
  match v with
  | J.Float f when Float.is_finite f -> add (Printf.sprintf "%.17g" f)
  | J.Float _ -> add "null"
  | J.List l ->
      add "[";
      List.iteri
        (fun i x ->
          if i > 0 then add ",";
          render buf x)
        l;
      add "]"
  | J.Obj l ->
      add "{";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then add ",";
          add (J.to_string (J.String k));
          add ":";
          render buf x)
        l;
      add "}"
  | J.Null | J.Bool _ | J.Int _ | J.String _ -> add (J.to_string v)

let to_string v =
  let buf = Buffer.create 1024 in
  render buf v;
  Buffer.contents buf

(* One workload's outcome. [metrics] are the named numbers of the result
   line; [detail] is the human-facing record printed before it. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * (float * string)) list;
  detail : (string * J.t) list;
}

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, (v, unit)) ->
               (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
             r.metrics) );
    ]

let host_json () =
  J.Obj
    [
      ("nproc", J.Int (Mo_par.recommended_jobs ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("domains", J.Bool Mo_par.available);
      ("default_jobs", J.Int (Mo_par.default_jobs ()));
    ]
