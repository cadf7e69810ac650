(* The tuple-and-Hashtbl config quotients that Enumerate.configs_sym's
   integer-coded canonicity test replaced, kept verbatim as its
   differential oracle. Each config is renamed by every process
   permutation, the images are sorted and compared polymorphically, and
   the configs are grouped by their lex-least image in first-seen order.
   Nothing under lib/ or bin/ links this. *)

open Mo_order

let permutations = Enumerate.permutations
let configs = Enumerate.configs

let proc_perms nprocs =
  List.map Array.of_list (permutations (List.init nprocs Fun.id))

let rename_config pi msgs = Array.map (fun (s, d) -> (pi.(s), pi.(d))) msgs

(* Group a (config, weight) stream by canonical key, preserving
   first-seen order so enumeration order is deterministic. *)
let group_by_canon canon stream =
  let counts = Hashtbl.create 97 in
  let order = ref [] in
  List.iter
    (fun (msgs, w) ->
      let key = canon msgs in
      match Hashtbl.find_opt counts key with
      | None ->
          Hashtbl.add counts key w;
          order := key :: !order
      | Some n -> Hashtbl.replace counts key (n + w))
    stream;
  List.rev_map (fun key -> (key, Hashtbl.find counts key)) !order

let configs_quotient ?allow_self ~nprocs ~nmsgs () =
  (* quotient by process renaming only; representative = lex-least
     renamed config, multiplicity = orbit size among ordered configs *)
  let perms = proc_perms nprocs in
  let canon msgs =
    List.fold_left
      (fun best pi ->
        let c = rename_config pi msgs in
        match best with Some b when compare b c <= 0 -> best | _ -> Some c)
      None perms
    |> Option.get
  in
  group_by_canon canon
    (List.map (fun c -> (c, 1)) (configs ?allow_self ~nprocs ~nmsgs ()))

(* All sorted configs (non-decreasing endpoint pairs) with the count of
   ordered configs each stands for: nmsgs!/∏(run lengths!). Iterating
   these instead of the full product is what keeps canonicalization cheap
   at vast sizes. *)
let sorted_configs ?(allow_self = false) ~nprocs ~nmsgs () =
  let endpoints =
    List.concat_map
      (fun s -> List.init nprocs (fun d -> (s, d)))
      (List.init nprocs Fun.id)
    |> List.filter (fun (s, d) -> allow_self || s <> d)
    |> Array.of_list
  in
  let ne = Array.length endpoints in
  let fact = Array.make (nmsgs + 1) 1 in
  for i = 1 to nmsgs do
    fact.(i) <- fact.(i - 1) * i
  done;
  if nmsgs = 0 then [ ([||], 1) ]
  else begin
    let acc = ref [] in
    let idx = Array.make nmsgs 0 in
    let rec go k lo =
      if k = nmsgs then begin
        let mult = ref fact.(nmsgs) in
        let i = ref 0 in
        while !i < nmsgs do
          let j = ref !i in
          while !j < nmsgs && idx.(!j) = idx.(!i) do
            incr j
          done;
          mult := !mult / fact.(!j - !i);
          i := !j
        done;
        acc := (Array.map (fun i -> endpoints.(i)) idx, !mult) :: !acc
      end
      else
        for e = lo to ne - 1 do
          idx.(k) <- e;
          go (k + 1) e
        done
    in
    go 0 0;
    List.rev !acc
  end

let configs_sym ?allow_self ~nprocs ~nmsgs () =
  (* quotient by process renaming × message reorder; representative =
     lex-least sorted renamed config, multiplicity = number of ordered
     configs whose run sets are isomorphic to the representative's *)
  let perms = proc_perms nprocs in
  let canon msgs =
    List.fold_left
      (fun best pi ->
        let c = rename_config pi msgs in
        Array.sort compare c;
        match best with Some b when compare b c <= 0 -> best | _ -> Some c)
      None perms
    |> Option.get
  in
  group_by_canon canon (sorted_configs ?allow_self ~nprocs ~nmsgs ())
