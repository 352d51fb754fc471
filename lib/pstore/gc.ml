(* Reachability-based garbage collection with weak-reference semantics.

   Mark phase: trace strong references from the root seed (named roots plus
   any extra pins supplied by the runtime, e.g. VM stack frames or static
   fields).  Weak cells are traced as objects but their targets are not.

   Weak phase: any live weak cell whose target died is cleared to Null —
   this is what lets the Figure 7 registry release hyper-programs once no
   user references remain.

   Sweep phase: dead entries are removed from the heap. *)

type stats = {
  live : int;
  swept : int;
  weak_cleared : int;
}

let pp_stats ppf { live; swept; weak_cleared } =
  Format.fprintf ppf "live=%d swept=%d weak_cleared=%d" live swept weak_cleared

(* Iterative marking with an explicit work list: store graphs can be
   arbitrarily deep (a million-element linked list is ordinary data), so
   recursion over the object graph would overflow the OCaml stack.
   [edge] sees every strong reference out of a marked object. *)
let mark ~edge heap seed =
  let marked = Oid.Table.create 1024 in
  let work = Stack.create () in
  let push oid =
    if (not (Oid.Table.mem marked oid)) && Heap.is_live heap oid then begin
      Oid.Table.replace marked oid ();
      Stack.push oid work
    end
  in
  List.iter push seed;
  while not (Stack.is_empty work) do
    let oid = Stack.pop work in
    List.iter
      (fun target ->
        edge oid target;
        push target)
      (Heap.strong_refs (Heap.get heap oid))
  done;
  marked

(* One mark from the seed.  An edge that crosses a shard boundary to a
   live oid puts that oid in its owning shard's remembered set, which is
   what keeps later sweeps per-shard.  Weak-clear and sweep are one
   linear pass each. *)
let collect ~nshards ~shard_of ?(extra_roots = []) heap roots =
  let remembered = Array.make nshards Oid.Set.empty in
  let edge src target =
    let s = shard_of target in
    if s <> shard_of src && Heap.is_live heap target then
      remembered.(s) <- Oid.Set.add target remembered.(s)
  in
  let marked = mark ~edge heap (List.rev_append extra_roots (Roots.ref_oids roots)) in
  let is_marked oid = Oid.Table.mem marked oid in
  let weak_cleared = ref 0 in
  Heap.iter
    (fun oid entry ->
      match entry with
      | Heap.Weak cell when is_marked oid -> begin
        match cell.Heap.target with
        | Pvalue.Ref target when not (is_marked target) ->
          cell.Heap.target <- Pvalue.Null;
          incr weak_cleared
        | _ -> ()
      end
      | Heap.Weak _ | Heap.Record _ | Heap.Array _ | Heap.Str _ -> ())
    heap;
  let dead = ref [] in
  Heap.iter (fun oid _ -> if not (is_marked oid) then dead := oid :: !dead) heap;
  List.iter (Heap.remove heap) !dead;
  ( { live = Heap.size heap; swept = List.length !dead; weak_cleared = !weak_cleared },
    remembered )
