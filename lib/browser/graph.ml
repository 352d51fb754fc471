(* Object-graph analysis for the browser: sharing, identity and paths.
   OCB's design aims include "the visualisation of object sharing and
   identity"; the browser marks objects that are referenced from more
   than one place and can explain how an object is reachable. *)

open Pstore

(* Inbound strong-reference counts over the whole heap (roots count as
   referrers too). *)
let inbound_counts store =
  let counts = Oid.Table.create 256 in
  let bump oid = Oid.Table.replace counts oid (1 + Option.value (Oid.Table.find_opt counts oid) ~default:0) in
  Heap.iter (fun _ entry -> List.iter bump (Heap.strong_refs entry)) (Store.heap store);
  List.iter bump (Roots.ref_oids (Store.roots store));
  counts

(* Objects referenced from at least two places: candidates for the
   browser's sharing markers. *)
let shared_objects store =
  let counts = inbound_counts store in
  Oid.Table.fold (fun oid n acc -> if n >= 2 then Oid.Set.add oid acc else acc) counts
    Oid.Set.empty

(* How many strong references point at [oid]. *)
let inbound_count store oid =
  Option.value (Oid.Table.find_opt (inbound_counts store) oid) ~default:0

type path_step =
  | From_root of string
  | Via_field of Oid.t * int (* holder, slot *)
  | Via_element of Oid.t * int

let pp_step store ppf = function
  | From_root name -> Format.fprintf ppf "root %S" name
  | Via_field (holder, slot) ->
    let session = Store.default_session store in
    Format.fprintf ppf "%s%a.[%d]" (Store.Session.class_of session holder) Oid.pp holder slot
  | Via_element (holder, idx) -> Format.fprintf ppf "%a[%d]" Oid.pp holder idx

(* Breadth-first search for a path from the named roots to [target];
   explains reachability in the browser. *)
let path_to store target =
  let session = Store.default_session store in
  let visited = Oid.Table.create 256 in
  let queue = Queue.create () in
  Roots.iter
    (fun name v ->
      match v with
      | Pvalue.Ref oid when not (Oid.Table.mem visited oid) ->
        Oid.Table.replace visited oid ();
        Queue.add (oid, [ From_root name ]) queue
      | _ -> ())
    (Store.roots store);
  let rec bfs () =
    if Queue.is_empty queue then None
    else begin
      let oid, path = Queue.pop queue in
      if Oid.equal oid target then Some (List.rev path)
      else begin
        (match Store.Session.get session oid with
        | Heap.Record r ->
          Array.iteri
            (fun slot v ->
              match v with
              | Pvalue.Ref next when not (Oid.Table.mem visited next) ->
                Oid.Table.replace visited next ();
                Queue.add (next, Via_field (oid, slot) :: path) queue
              | _ -> ())
            r.Heap.fields
        | Heap.Array a ->
          Array.iteri
            (fun idx v ->
              match v with
              | Pvalue.Ref next when not (Oid.Table.mem visited next) ->
                Oid.Table.replace visited next ();
                Queue.add (next, Via_element (oid, idx) :: path) queue
              | _ -> ())
            a.Heap.elems
        | Heap.Str _ | Heap.Weak _ -> ());
        bfs ()
      end
    end
  in
  bfs ()

(* Instances per class, for the browser's store summary: the counts the
   heap keeps, so the cost grows with the classes, not the objects. *)
let census store = Heap.class_counts (Store.heap store)
