(* The class loader: links batches of class files into a running VM.

   Classes in a batch may reference each other; the linker orders
   definitions so superclasses and interfaces come first.  Every defined
   class is also written to the persistent store's blob table, making
   classes persistent: a store reopened later can relink them without
   recompiling (see Boot). *)

exception Link_error of string

let link_error fmt = Format.kasprintf (fun s -> raise (Link_error s)) fmt

let class_blob_prefix = "minijava.class:"
let order_blob = "minijava.class-order"

(* Topologically sort a batch by the extends/implements relation,
   considering only dependencies inside the batch. *)
let sort_batch (cfs : Classfile.t list) =
  let by_name = Hashtbl.create 16 in
  List.iter (fun cf -> Hashtbl.replace by_name cf.Classfile.cf_name cf) cfs;
  let visited = Hashtbl.create 16 in
  let result = ref [] in
  let rec visit trail name =
    if List.mem name trail then link_error "cyclic inheritance involving %s" name;
    match Hashtbl.find_opt by_name name with
    | None -> () (* outside the batch: must already be loaded *)
    | Some cf ->
      if not (Hashtbl.mem visited name) then begin
        Hashtbl.replace visited name ();
        let deps =
          (match cf.Classfile.cf_super with Some s -> [ s ] | None -> [])
          @ cf.Classfile.cf_interfaces
        in
        List.iter (visit (name :: trail)) deps;
        result := cf :: !result
      end
  in
  List.iter (fun cf -> visit [] cf.Classfile.cf_name) cfs;
  List.rev !result

let persist_class vm (cf : Classfile.t) =
  let open Pstore in
  Store.set_blob vm.Rt.store (class_blob_prefix ^ cf.Classfile.cf_name) (Classfile.encode cf);
  let order =
    match Store.blob vm.Rt.store order_blob with
    | Some s -> s
    | None -> ""
  in
  let names = String.split_on_char '\n' order |> List.filter (fun s -> s <> "") in
  if not (List.mem cf.Classfile.cf_name names) then
    Store.set_blob vm.Rt.store order_blob
      (String.concat "\n" (names @ [ cf.Classfile.cf_name ]))

(* Define a batch of class files.  [persist] (default true) writes them
   to the store's blob table. *)
let load_batch ?(persist = true) vm (cfs : Classfile.t list) =
  let ordered = sort_batch cfs in
  (* Verify external dependencies are present before defining anything. *)
  List.iter
    (fun cf ->
      let deps =
        (match cf.Classfile.cf_super with Some s -> [ s ] | None -> [])
        @ cf.Classfile.cf_interfaces
      in
      List.iter
        (fun dep ->
          let in_batch = List.exists (fun c -> String.equal c.Classfile.cf_name dep) ordered in
          if (not in_batch) && not (Rt.is_loaded vm dep) then
            link_error "class %s depends on unloaded class %s" cf.Classfile.cf_name dep)
        deps)
    ordered;
  let rcs = List.map (Rt.define_class vm) ordered in
  if persist then List.iter (persist_class vm) ordered;
  rcs

(* -- redefinition -----------------------------------------------------------
   Redefining a loaded class (the fresh-class-loader analog, and the
   mechanism behind schema evolution): the old definition is swapped out,
   the new one linked, the instance layouts of loaded subclasses rebuilt,
   and every store instance of an affected class reconstructed in place —
   oids are preserved, so references and hyper-links stay valid. *)

(* Best-effort value migration when a field keeps its name but changes
   type: identical tags copy, safe numeric widenings convert, anything
   else resets to the default. *)
let migrate_value vm (v : Pstore.Pvalue.t) (target : Jtype.t) =
  let open Pstore in
  let default () = Rt.default_value target in
  match v, target with
  | Pvalue.Bool _, Jtype.Boolean
  | Pvalue.Byte _, Jtype.Byte
  | Pvalue.Short _, Jtype.Short
  | Pvalue.Char _, Jtype.Char
  | Pvalue.Int _, Jtype.Int
  | Pvalue.Long _, Jtype.Long
  | Pvalue.Float _, Jtype.Float
  | Pvalue.Double _, Jtype.Double
  | Pvalue.Null, (Jtype.Class _ | Jtype.Array _) -> v
  | Pvalue.Byte n, Jtype.Short -> Pvalue.Short n
  | Pvalue.Byte n, Jtype.Int | Pvalue.Short n, Jtype.Int | Pvalue.Char n, Jtype.Int ->
    Pvalue.Int (Int32.of_int n)
  | Pvalue.Int n, Jtype.Long -> Pvalue.Long (Int64.of_int32 n)
  | (Pvalue.Byte n | Pvalue.Short n), Jtype.Long -> Pvalue.Long (Int64.of_int n)
  | Pvalue.Int n, Jtype.Double -> Pvalue.Double (Int32.to_float n)
  | Pvalue.Float f, Jtype.Double -> Pvalue.Double f
  | Pvalue.Ref _, (Jtype.Class _ | Jtype.Array _) ->
    if Rt.value_conforms vm v (Jtype.descriptor target) then v else default ()
  | _ -> default ()

(* Rebuild a class's instance layout from its class file and the (already
   rebuilt) layout of its superclass. *)
let rebuild_layout vm rc =
  let super_layout =
    match rc.Rt.rc_super with
    | None -> [||]
    | Some super -> (Rt.get_class vm super).Rt.rc_layout
  in
  let own =
    rc.Rt.rc_classfile.Classfile.cf_fields
    |> List.filter (fun f -> not f.Classfile.f_static)
    |> List.map (fun f ->
           {
             Rt.rf_name = f.Classfile.f_name;
             rf_type = Jtype.of_descriptor f.Classfile.f_desc;
             rf_static = false;
           })
  in
  let layout = Array.append super_layout (Array.of_list own) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace index f.Rt.rf_name i) layout;
  rc.Rt.rc_layout <- layout;
  rc.Rt.rc_layout_index <- index

(* Reconstruct one instance in place against its class's new layout,
   using a snapshot of the old field indexes. *)
let reconstruct_instance vm old_index (record : Pstore.Heap.record) new_layout =
  let old_fields = record.Pstore.Heap.fields in
  let new_fields =
    Array.map
      (fun rf ->
        match Hashtbl.find_opt old_index rf.Rt.rf_name with
        | Some old_slot when old_slot < Array.length old_fields ->
          migrate_value vm old_fields.(old_slot) rf.Rt.rf_type
        | _ -> Rt.default_value rf.Rt.rf_type)
      new_layout
  in
  record.Pstore.Heap.fields <- new_fields

let inheritance_depth vm name =
  let rec go name acc =
    match (Rt.get_class vm name).Rt.rc_super with
    | Some super -> go super (acc + 1)
    | None -> acc
  in
  go name 0

(* Link a batch, redefining any classes that are already loaded.
   Returns the linked classes. *)
let load_or_redefine_batch ?persist vm (cfs : Classfile.t list) =
  let names = List.map (fun cf -> cf.Classfile.cf_name) cfs in
  let redefined = List.filter (Rt.is_loaded vm) names in
  if redefined = [] then load_batch ?persist vm cfs
  else begin
    (* Reconstructing instances below mutates records behind the store's
       journal, so the store is flagged for a full snapshot at its next
       stabilise.  Flag it first: the store refuses while snapshot
       sessions are open, and a refusal must find the class, its blob
       and its instances untouched. *)
    Pstore.Store.mark_dirty vm.Rt.store;
    (* Affected classes: redefined ones plus their loaded subclasses. *)
    let subclasses =
      List.filter
        (fun cls ->
          (not (List.mem cls redefined))
          && List.exists (fun r -> Rt.is_class_subtype vm cls r) redefined)
        vm.Rt.load_order
    in
    let affected = redefined @ subclasses in
    let old_indexes =
      List.map
        (fun cls -> (cls, Hashtbl.copy (Rt.get_class vm cls).Rt.rc_layout_index))
        affected
    in
    List.iter
      (fun cls ->
        Hashtbl.remove vm.Rt.classes cls;
        vm.Rt.load_order <-
          List.filter (fun n -> not (String.equal n cls)) vm.Rt.load_order)
      redefined;
    let rcs = load_batch ?persist vm cfs in
    (* Rebuild subclass layouts, parents before children. *)
    let ordered_subclasses =
      List.sort
        (fun a b -> Int.compare (inheritance_depth vm a) (inheritance_depth vm b))
        subclasses
    in
    List.iter (fun cls -> rebuild_layout vm (Rt.get_class vm cls)) ordered_subclasses;
    (* Reconstruct store instances of every affected class in place. *)
    let heap = Pstore.Store.heap vm.Rt.store in
    Pstore.Heap.iter
      (fun _oid entry ->
        match entry with
        | Pstore.Heap.Record r when List.mem r.Pstore.Heap.class_name affected -> begin
          let cls = r.Pstore.Heap.class_name in
          match Rt.find_class vm cls with
          | Some rc ->
            reconstruct_instance vm (List.assoc cls old_indexes) r rc.Rt.rc_layout
          | None -> ()
        end
        | _ -> ())
      heap;
    rcs
  end

(* Relink all classes previously persisted in the store, in their
   original definition order. *)
let relink_persisted vm =
  let open Pstore in
  match Store.blob vm.Rt.store order_blob with
  | None -> []
  | Some order ->
    let names = String.split_on_char '\n' order |> List.filter (fun s -> s <> "") in
    List.map
      (fun name ->
        match Store.blob vm.Rt.store (class_blob_prefix ^ name) with
        | Some data -> Rt.define_class vm (Classfile.decode data)
        | None -> link_error "missing class blob for %s" name)
      names
