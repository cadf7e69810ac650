(* Mo_core.Modelcheck's verify, count and placement over the concrete
   walk (Enumerate.fold_abstracts_par): every run of every size visited
   once, with weight 1, and no subtree ever pruned. It is the
   differential oracle for the quotiented walk the library ships; since
   the two share the checker's per-run steps, a disagreement isolates
   the walk — orbit enumeration, orbit sizes and decided-subtree
   pruning. *)

include Mo_core.Modelcheck.Make (struct
  let fold ~pool ~nprocs ~nmsgs ~prune:_ ~init ~f ~merge =
    Mo_order.Enumerate.fold_abstracts_par ~pool ~nprocs ~nmsgs ~init
      ~f:(fun acc a -> f acc ~mult:1 a)
      ~merge ()
end)
