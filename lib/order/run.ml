type attrs = { src : int option; dst : int option; color : int option }

let no_attrs = { src = None; dst = None; color = None }

let attrs_known ~src ~dst ?color () =
  { src = Some src; dst = Some dst; color }

module Abstract = struct
  let word_bits = 62

  type shape = {
    nmsgs : int;
    live : int array; (* the set of all nmsgs messages *)
    src : int array; (* per message, -1 = unknown *)
    dst : int array;
    color : int array;
  }

  type t = {
    shape : shape;
    po_l : Poset.t Lazy.t;
        (* lazy so the enumeration kernel can hand over only the rows;
           forced on the first event-level query *)
    mutable rows : int array array option;
        (* per message x, the eight relation sections ss sr rs rr ss_t
           sr_t rs_t rr_t, section k at words [k * nw ..]; computed on
           first use unless supplied by the enumeration kernel *)
  }

  let known what = function
    | None -> -1
    | Some v when v >= 0 -> v
    | Some _ -> invalid_arg ("Run.Abstract: negative " ^ what ^ " attribute")

  let shape_of_attrs attrs =
    let n = Array.length attrs in
    let nw = (n + word_bits - 1) / word_bits in
    {
      nmsgs = n;
      live =
        Array.init nw (fun w ->
            (1 lsl min word_bits (n - (w * word_bits))) - 1);
      src = Array.map (fun (a : attrs) -> known "src" a.src) attrs;
      dst = Array.map (fun (a : attrs) -> known "dst" a.dst) attrs;
      color = Array.map (fun (a : attrs) -> known "color" a.color) attrs;
    }

  let create ~nmsgs ?attrs edges =
    let attrs =
      match attrs with
      | Some a ->
          if Array.length a <> nmsgs then
            invalid_arg "Run.Abstract.create: attrs length mismatch";
          a
      | None -> Array.make nmsgs no_attrs
    in
    let shape = shape_of_attrs attrs in
    let implicit =
      List.init nmsgs (fun m ->
          (Event.encode (Event.send m), Event.encode (Event.deliver m)))
    in
    let encoded =
      List.map (fun (h, g) -> (Event.encode h, Event.encode g)) edges
    in
    match Poset.of_edges (2 * nmsgs) (implicit @ encoded) with
    | None -> None
    | Some po -> Some { shape; po_l = Lazy.from_val po; rows = None }

  let create_exn ~nmsgs ?attrs edges =
    match create ~nmsgs ?attrs edges with
    | Some t -> t
    | None -> invalid_arg "Run.Abstract.create_exn: not a partial order"

  let nmsgs t = t.shape.nmsgs
  let shape t = t.shape
  let words t = Array.length t.shape.live

  let attrs t m =
    if m < 0 || m >= t.shape.nmsgs then invalid_arg "Run.Abstract.attrs";
    let opt v = if v < 0 then None else Some v in
    {
      src = opt t.shape.src.(m);
      dst = opt t.shape.dst.(m);
      color = opt t.shape.color.(m);
    }

  let poset t = Lazy.force t.po_l

  (* De-interleave the event-level reachability rows into the four msg×msg
     endpoint relations (plus their transposes, sections 4-7). Even
     vertices are sends, odd ones deliveries (see Event.encode). *)
  let build_rows t =
    let n = nmsgs t and nw = words t in
    let rows = Array.init n (fun _ -> Array.make (8 * nw) 0) in
    let po = poset t in
    for u = 0 to (2 * n) - 1 do
      let x = u lsr 1 in
      let rx = rows.(x) in
      let base = if u land 1 = 0 then 0 else 2 in
      let xw = x / word_bits and xb = 1 lsl (x mod word_bits) in
      Poset.iter_above po u (fun v ->
          let y = v lsr 1 in
          let k = base + (v land 1) in
          let i = (k * nw) + (y / word_bits) in
          rx.(i) <- rx.(i) lor (1 lsl (y mod word_bits));
          let ry = rows.(y) and j = ((k + 4) * nw) + xw in
          ry.(j) <- ry.(j) lor xb)
    done;
    rows

  let rows t =
    match t.rows with
    | Some r -> r
    | None ->
        let r = build_rows t in
        t.rows <- Some r;
        r

  (* reconstruct the event-level order from the rows: the closure is
     already known, so the "generators" are the closure edges themselves
     (Poset only needs them acyclic, not reduced) *)
  let poset_of_rows ~nmsgs ~nw rows =
    let n2 = 2 * nmsgs in
    let succ = Array.make n2 [] in
    let reach = Array.init n2 (fun _ -> Bitset.create n2) in
    for u = 0 to n2 - 1 do
      let row = rows.(u lsr 1) in
      let base = if u land 1 = 0 then 0 else 2 in
      let reach_u = reach.(u) in
      let out = ref [] in
      for y = nmsgs - 1 downto 0 do
        let w = y / word_bits and b = 1 lsl (y mod word_bits) in
        if row.(((base + 1) * nw) + w) land b <> 0 then begin
          Bitset.add reach_u ((2 * y) + 1);
          out := ((2 * y) + 1) :: !out
        end;
        if row.((base * nw) + w) land b <> 0 then begin
          Bitset.add reach_u (2 * y);
          out := (2 * y) :: !out
        end
      done;
      succ.(u) <- !out
    done;
    Poset.of_closure_unchecked ~n:n2 ~succ ~reach

  let of_rows shape rows =
    let n = shape.nmsgs and nw = Array.length shape.live in
    if Array.length rows <> n then
      invalid_arg "Run.Abstract.of_rows: rows do not match the shape";
    { shape; po_l = lazy (poset_of_rows ~nmsgs:n ~nw rows); rows = Some rows }

  let lt t h g = Poset.lt (poset t) (Event.encode h) (Event.encode g)

  let concurrent t h g =
    Poset.concurrent (poset t) (Event.encode h) (Event.encode g)

  (* Every edge x.p ▷ y.q of the message graph implies x.s ▷ y.r
     (x.s ⊴ x.p, y.q ⊴ y.r), so the graph is sr without its diagonal
     (x.s ▷ x.r); without sr it is ss ∪ rr, as rs ⊆ ss
     (x.s ▷ x.r ▷ y.s). *)
  let message_rows ~with_sr t =
    let n = nmsgs t and nw = words t in
    let rows = rows t in
    let g = Array.make (n * nw) 0 in
    for x = 0 to n - 1 do
      let r = rows.(x) and o = x * nw in
      if with_sr then begin
        for w = 0 to nw - 1 do
          g.(o + w) <- r.(nw + w)
        done;
        let i = o + (x / word_bits) in
        g.(i) <- g.(i) land lnot (1 lsl (x mod word_bits))
      end
      else
        for w = 0 to nw - 1 do
          g.(o + w) <- r.(w) lor r.((3 * nw) + w)
        done
    done;
    g

  let message_graph t =
    let n = nmsgs t in
    let acc = ref [] in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        if x <> y then
          let precedes =
            List.exists
              (fun (h, f) -> lt t h f)
              [
                (Event.send x, Event.send y);
                (Event.send x, Event.deliver y);
                (Event.deliver x, Event.send y);
                (Event.deliver x, Event.deliver y);
              ]
          in
          if precedes then acc := (x, y) :: !acc
      done
    done;
    List.rev !acc

  let events t = List.init (2 * nmsgs t) Event.decode

  let equal a b =
    nmsgs a = nmsgs b
    && Poset.relation_equal (poset a) (poset b)
    && a.shape.src = b.shape.src
    && a.shape.dst = b.shape.dst
    && a.shape.color = b.shape.color

  let pp ppf t =
    Format.fprintf ppf "@[<v>run(%d msgs):" (nmsgs t);
    List.iter
      (fun (h, g) ->
        Format.fprintf ppf "@ %a -> %a" Event.pp (Event.decode h) Event.pp
          (Event.decode g))
      (Poset.covers (poset t));
    Format.fprintf ppf "@]"
end

type t = {
  nprocs : int;
  msgs : (int * int) array;
  colors : int option array;
  seq : Event.t list array;
  po : Poset.t;
}

type schedule_entry = Do_send of int | Do_deliver of int

let validate_placement ~nprocs ~msgs seq =
  let nmsgs = Array.length msgs in
  let seen = Array.make (2 * nmsgs) false in
  let err = ref None in
  let set_err s = if !err = None then err := Some s in
  Array.iteri
    (fun p events ->
      List.iter
        (fun (e : Event.t) ->
          if e.msg < 0 || e.msg >= nmsgs then
            set_err (Printf.sprintf "event of unknown message %d" e.msg)
          else begin
            let src, dst = msgs.(e.msg) in
            (match e.point with
            | Event.S ->
                if p <> src then
                  set_err
                    (Printf.sprintf "x%d.s on process %d, expected src %d"
                       e.msg p src)
            | Event.R ->
                if p <> dst then
                  set_err
                    (Printf.sprintf "x%d.r on process %d, expected dst %d"
                       e.msg p dst));
            let i = Event.encode e in
            if seen.(i) then
              set_err (Format.asprintf "duplicate event %a" Event.pp e)
            else seen.(i) <- true
          end)
        events)
    seq;
  Array.iteri
    (fun i (src, dst) ->
      if src < 0 || src >= nprocs || dst < 0 || dst >= nprocs then
        set_err (Printf.sprintf "message %d has endpoint out of range" i);
      if not seen.(Event.encode (Event.send i)) then
        set_err (Printf.sprintf "x%d.s missing (incomplete run)" i);
      if not seen.(Event.encode (Event.deliver i)) then
        set_err (Printf.sprintf "x%d.r missing (incomplete run)" i))
    msgs;
  !err

let build_poset ~msgs seq =
  let nmsgs = Array.length msgs in
  let edges = ref [] in
  Array.iter
    (fun events ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
            edges := (Event.encode a, Event.encode b) :: !edges;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain events)
    seq;
  for m = 0 to nmsgs - 1 do
    edges :=
      (Event.encode (Event.send m), Event.encode (Event.deliver m)) :: !edges
  done;
  Poset.of_edges (2 * nmsgs) !edges

(* colors are non-negative: the abstract view encodes "no color" as -1 *)
let colors_of name ~msgs = function
  | Some c ->
      if Array.length c <> Array.length msgs then
        invalid_arg (name ^ ": colors length mismatch");
      if Array.exists (function Some k -> k < 0 | None -> false) c then
        invalid_arg (name ^ ": negative color");
      c
  | None -> Array.make (Array.length msgs) None

let of_sequences ~nprocs ~msgs ?colors seq =
  if Array.length seq <> nprocs then
    invalid_arg "Run.of_sequences: sequence array length <> nprocs";
  let colors = colors_of "Run.of_sequences" ~msgs colors in
  match validate_placement ~nprocs ~msgs seq with
  | Some e -> Error e
  | None -> (
      match build_poset ~msgs seq with
      | None -> Error "process sequences induce a cyclic order"
      | Some po -> Ok { nprocs; msgs; colors; seq; po })

let of_enumeration ~nprocs ~msgs ?colors ~po seq =
  let colors = colors_of "Run.of_enumeration" ~msgs colors in
  if Array.length seq <> nprocs then
    invalid_arg "Run.of_enumeration: sequence array length <> nprocs";
  if Poset.size po <> 2 * Array.length msgs then
    invalid_arg "Run.of_enumeration: poset size <> 2 * nmsgs";
  { nprocs; msgs; colors; seq; po }

let of_schedule ~nprocs ~msgs ?colors sched =
  let nmsgs = Array.length msgs in
  let sent = Array.make nmsgs false in
  let seq_rev = Array.make nprocs [] in
  let err = ref None in
  List.iter
    (fun entry ->
      if !err = None then
        match entry with
        | Do_send m ->
            if m < 0 || m >= nmsgs then
              err := Some (Printf.sprintf "send of unknown message %d" m)
            else begin
              sent.(m) <- true;
              let src, _ = msgs.(m) in
              seq_rev.(src) <- Event.send m :: seq_rev.(src)
            end
        | Do_deliver m ->
            if m < 0 || m >= nmsgs then
              err := Some (Printf.sprintf "deliver of unknown message %d" m)
            else if not sent.(m) then
              err :=
                Some
                  (Printf.sprintf "x%d.r scheduled before x%d.s (spurious)" m
                     m)
            else
              let _, dst = msgs.(m) in
              seq_rev.(dst) <- Event.deliver m :: seq_rev.(dst))
    sched;
  match !err with
  | Some e -> Error e
  | None ->
      of_sequences ~nprocs ~msgs ?colors (Array.map List.rev seq_rev)

let nprocs t = t.nprocs

let nmsgs t = Array.length t.msgs

let msg_src t m = fst t.msgs.(m)

let msg_dst t m = snd t.msgs.(m)

let msg_color t m = t.colors.(m)

let sequence t i =
  if i < 0 || i >= t.nprocs then invalid_arg "Run.sequence";
  t.seq.(i)

let lt t h g = Poset.lt t.po (Event.encode h) (Event.encode g)

let concurrent t h g = Poset.concurrent t.po (Event.encode h) (Event.encode g)

let to_abstract t =
  let shape =
    Abstract.shape_of_attrs
      (Array.mapi
         (fun m (src, dst) ->
           { src = Some src; dst = Some dst; color = t.colors.(m) })
         t.msgs)
  in
  (* the concrete order already lives on Event.encode'd vertices and
     includes every x.s ▷ x.r edge, so the abstract view can share the
     poset instead of rebuilding its closure *)
  { Abstract.shape; po_l = Lazy.from_val t.po; rows = None }

let linearize t =
  let cursors = Array.copy t.seq in
  let sent = Array.make (Array.length t.msgs) false in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun p events ->
        match events with
        | (e : Event.t) :: rest -> (
            match e.point with
            | Event.S ->
                sent.(e.msg) <- true;
                out := e :: !out;
                cursors.(p) <- rest;
                progress := true
            | Event.R ->
                if sent.(e.msg) then begin
                  out := e :: !out;
                  cursors.(p) <- rest;
                  progress := true
                end)
        | [] -> ())
      cursors
  done;
  (* a valid run always drains: every delivery's send is in some sequence *)
  assert (Array.for_all (fun c -> c = []) cursors);
  List.rev !out

let linearize_random t ~seed =
  let rng = Random.State.make [| 0x6d6f6c72; seed |] in
  let cursors = Array.copy t.seq in
  let sent = Array.make (Array.length t.msgs) false in
  let total = Array.fold_left (fun n l -> n + List.length l) 0 t.seq in
  let enabled = Array.make (max t.nprocs 1) 0 in
  let out = ref [] in
  for _ = 1 to total do
    let n = ref 0 in
    Array.iteri
      (fun p events ->
        match events with
        | ({ point = Event.S; _ } : Event.t) :: _ ->
            enabled.(!n) <- p;
            incr n
        | { point = Event.R; msg } :: _ when sent.(msg) ->
            enabled.(!n) <- p;
            incr n
        | _ -> ())
      cursors;
    (* a valid run always has an enabled event until it drains *)
    assert (!n > 0);
    let p = enabled.(Random.State.int rng !n) in
    match cursors.(p) with
    | [] -> assert false
    | (e : Event.t) :: rest ->
        if e.point = Event.S then sent.(e.msg) <- true;
        out := e :: !out;
        cursors.(p) <- rest
  done;
  List.rev !out

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p events ->
      Format.fprintf ppf "P%d: @[<h>%a@]@ " p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Event.pp)
        events)
    t.seq;
  Format.fprintf ppf "@]"
