(* The store heap: a table from oid to object.  Four object kinds suffice
   for the whole system: records (class instances), arrays, immutable
   strings, and weak cells (used by the hyper-program registry, Figure 7 of
   the paper).  Records keep their field array mutable so that schema
   evolution can reshape instances in place, preserving oids and therefore
   hyper-link validity; their class name is fixed, so an entry's census
   class never changes while it is live. *)

exception Heap_error of string

let heap_error fmt = Format.kasprintf (fun s -> raise (Heap_error s)) fmt

type record = {
  class_name : string;
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

(* Beside the table, the number of live entries per census class
   ({!entry_class}).  Only [insert], [remove] and [replace_all] add or
   take entries, and a live entry's class never changes, so these three
   keep the counts equal to a walk of the table.  Arrays are counted by
   element type, so that counting one allocates no descriptor; a class
   whose count reaches 0 leaves its table. *)
type t = {
  table : entry Oid.Table.t;
  classes : (string, int ref) Hashtbl.t;  (* records, strings, weak cells *)
  arrays : (string, int ref) Hashtbl.t;  (* by element type *)
  mutable next : int;
}

let create () =
  { table = Oid.Table.create 1024; classes = Hashtbl.create 64; arrays = Hashtbl.create 16; next = 1 }

let size heap = Oid.Table.length heap.table

let next_oid heap = heap.next

let set_next_oid heap n = heap.next <- n

let string_class = "java.lang.String"
let weak_class = "pstore.WeakReference"

let bump counts key d =
  match Hashtbl.find counts key with
  | n ->
    n := !n + d;
    if !n = 0 then Hashtbl.remove counts key
  | exception Not_found -> Hashtbl.add counts key (ref d)

let count heap d = function
  | Record r -> bump heap.classes r.class_name d
  | Array a -> bump heap.arrays a.elem_type d
  | Str _ -> bump heap.classes string_class d
  | Weak _ -> bump heap.classes weak_class d

let insert heap oid entry =
  if Oid.Table.mem heap.table oid then heap_error "insert: oid %a already live" Oid.pp oid;
  Oid.Table.replace heap.table oid entry;
  count heap 1 entry

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
  | Str _ -> string_class
  | Weak _ -> weak_class

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

let remove heap oid =
  match Oid.Table.find heap.table oid with
  | entry ->
    Oid.Table.remove heap.table oid;
    count heap (-1) entry
  | exception Not_found -> ()

(* Sorted by class.  Record class names are Java names, which never end
   in "[]", so no record class shares a line with an array type. *)
let class_counts heap =
  let add key n acc = (key, !n) :: acc in
  Hashtbl.fold add heap.classes (Hashtbl.fold (fun elem -> add (elem ^ "[]")) heap.arrays [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
   rollback support).  The counts are copied, not shared: the two heaps
   change apart afterwards. *)
let replace_all dst ~from =
  Oid.Table.reset dst.table;
  Oid.Table.iter (fun oid entry -> Oid.Table.replace dst.table oid entry) from.table;
  let copy dst src =
    Hashtbl.reset dst;
    Hashtbl.iter (fun key n -> Hashtbl.add dst key (ref !n)) src
  in
  copy dst.classes from.classes;
  copy dst.arrays from.arrays;
  dst.next <- from.next
