(* The store heap: a table from oid to object.  Four object kinds suffice
   for the whole system: records (class instances), arrays, immutable
   strings, and weak cells (used by the hyper-program registry, Figure 7 of
   the paper).  Records keep their class name and field array mutable so
   that schema evolution can update instances in place, preserving oids and
   therefore hyper-link validity. *)

exception Heap_error of string

let heap_error fmt = Format.kasprintf (fun s -> raise (Heap_error s)) fmt

type record = {
  mutable class_name : string;
  mutable fields : Pvalue.t array;
}

type arr = {
  elem_type : string;
  elems : Pvalue.t array;
}

type weak_cell = { mutable target : Pvalue.t }

type entry =
  | Record of record
  | Array of arr
  | Str of string
  | Weak of weak_cell

type t = {
  table : entry Oid.Table.t;
  mutable next : int;
}

let create () = { table = Oid.Table.create 1024; next = 1 }

let size heap = Oid.Table.length heap.table

let next_oid heap = heap.next

let set_next_oid heap n = heap.next <- n

let insert heap oid entry =
  if Oid.Table.mem heap.table oid then heap_error "insert: oid %a already live" Oid.pp oid;
  Oid.Table.replace heap.table oid entry

let find heap oid = Oid.Table.find_opt heap.table oid

let is_live heap oid = Oid.Table.mem heap.table oid

let dangling oid = heap_error "dangling reference %a" Oid.pp oid

let get heap oid =
  match find heap oid with
  | Some entry -> entry
  | None -> dangling oid

(* Projections of one entry.  The store's session reads resolve an entry
   their own way and then project it through these, so every read path
   reports the same errors. *)

let as_record oid = function
  | Record r -> r
  | Array _ | Str _ | Weak _ -> heap_error "%a is not a record" Oid.pp oid

let as_array oid = function
  | Array a -> a
  | Record _ | Str _ | Weak _ -> heap_error "%a is not an array" Oid.pp oid

let as_string oid = function
  | Str s -> s
  | Record _ | Array _ | Weak _ -> heap_error "%a is not a string" Oid.pp oid

let as_weak oid = function
  | Weak c -> c
  | Record _ | Array _ | Str _ -> heap_error "%a is not a weak cell" Oid.pp oid

let entry_class = function
  | Record r -> r.class_name
  | Array a -> a.elem_type ^ "[]"
  | Str _ -> "java.lang.String"
  | Weak _ -> "pstore.WeakReference"

let check_field oid r idx =
  if idx < 0 || idx >= Array.length r.fields then
    heap_error "field index %d out of range for %a (%s)" idx Oid.pp oid r.class_name

let check_elem a idx =
  if idx < 0 || idx >= Array.length a.elems then
    heap_error "array index %d out of bounds (length %d)" idx (Array.length a.elems)

let record_field oid r idx =
  check_field oid r idx;
  r.fields.(idx)

let array_elem a idx =
  check_elem a idx;
  a.elems.(idx)

let get_record heap oid = as_record oid (get heap oid)
let get_array heap oid = as_array oid (get heap oid)
let field heap oid idx = record_field oid (get_record heap oid) idx

let set_field heap oid idx v =
  let r = get_record heap oid in
  check_field oid r idx;
  r.fields.(idx) <- v

let set_elem heap oid idx v =
  let a = get_array heap oid in
  check_elem a idx;
  a.elems.(idx) <- v

let remove heap oid = Oid.Table.remove heap.table oid

let iter f heap = Oid.Table.iter f heap.table

let fold f heap init = Oid.Table.fold f heap.table init

let oids heap = Oid.Table.fold (fun oid _ acc -> oid :: acc) heap.table []

(* Direct references held by one entry; weak cells contribute nothing,
   which is exactly what makes them weak for the garbage collector. *)
let strong_refs entry =
  let refs_of_values vs =
    Array.to_seq vs
    |> Seq.filter_map (function Pvalue.Ref oid -> Some oid | _ -> None)
    |> List.of_seq
  in
  match entry with
  | Record r -> refs_of_values r.fields
  | Array a -> refs_of_values a.elems
  | Str _ -> []
  | Weak _ -> []

(* Replace this heap's entire contents with another's (transaction
   rollback support). *)
let replace_all dst ~from =
  Oid.Table.reset dst.table;
  Oid.Table.iter (fun oid entry -> Oid.Table.replace dst.table oid entry) from.table;
  dst.next <- from.next
