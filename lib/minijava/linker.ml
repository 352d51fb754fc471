(* The class loader: links batches of class files into a running VM.

   Classes in a batch may reference each other; the linker orders
   definitions so superclasses and interfaces come first.  Every defined
   class is also written to the persistent store's blob table, making
   classes persistent: a store reopened later can relink them without
   recompiling (see Boot).  Three kinds of blob hold them:

   - [minijava.class:<name>], one class file each;
   - [minijava.source:<hex MD5 of the text>], one compilation unit's
     source text each, named by key from the class files of every class
     the unit defines, so a unit's text is stored once;
   - [minijava.class-order], the persisted class names in definition
     order, one a line.

   A unit blob is written only when its key is absent, and removed when a
   redefinition leaves no loaded class naming its text.  A class blob is
   written only when its stored bytes differ from the new encoding, so
   re-persisting an unchanged class journals nothing. *)

exception Link_error of string

let link_error fmt = Format.kasprintf (fun s -> raise (Link_error s)) fmt

let class_blob_prefix = "minijava.class:"
let order_blob = "minijava.class-order"
let source_blob_prefix = "minijava.source:"
let source_key text = source_blob_prefix ^ Digest.to_hex (Digest.string text)

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

(* Write a batch's class files to the store.  The classes of one unit
   share one source text, so each distinct text is hashed once per batch
   and its blob written only if absent; a class blob is written only if
   its stored bytes differ, so an older store's inline-source blob still
   moves to the keyed form; the class-order blob is read only if some
   class had no blob, and rewritten once, only if the batch adds a name. *)
let persist_batch vm (cfs : Classfile.t list) =
  let open Pstore in
  let session = vm.Rt.session in
  let keys = ref [] in
  let key_of text =
    match List.find_opt (fun (t, _) -> String.equal t text) !keys with
    | Some (_, key) -> key
    | None ->
      let key = source_key text in
      if Store.Session.blob session key = None then Store.Session.set_blob session key text;
      keys := (text, key) :: !keys;
      key
  in
  (* Write each class blob that differs; keep the classes that had none,
     the only ones the class order can be missing. *)
  let fresh =
    List.filter
      (fun cf ->
        let source_key = Option.map key_of cf.Classfile.cf_source in
        let key = class_blob_prefix ^ cf.Classfile.cf_name in
        let data = Classfile.encode ?source_key cf in
        let old = Store.Session.blob session key in
        if old <> Some data then Store.Session.set_blob session key data;
        old = None)
      cfs
  in
  if fresh <> [] then begin
    let names =
      match Store.Session.blob session order_blob with
      | Some s -> String.split_on_char '\n' s |> List.filter (fun s -> s <> "")
      | None -> []
    in
    let added =
      List.map (fun cf -> cf.Classfile.cf_name) fresh
      |> List.filter (fun name -> not (List.mem name names))
    in
    if added <> [] then
      Store.Session.set_blob session order_blob (String.concat "\n" (names @ added))
  end

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
  if persist then persist_batch vm ordered;
  rcs

(* -- redefinition -----------------------------------------------------------
   Redefining a loaded class (the fresh-class-loader analog, and the
   mechanism behind schema evolution): the old definition is swapped out,
   the new one linked, the instance layouts of loaded subclasses rebuilt,
   and every store instance of an affected class reconstructed in place —
   oids are preserved, so references and hyper-links stay valid.

   A batch whose every class file is byte-identical to the loaded one (a
   Go on an unchanged program) is not relinked: the loaded classes stay,
   their instances are untouched, and only their statics are reset, so
   the static initialisers run afresh as they would after a relink. *)

(* Is [cf] already loaded with exactly these bytes? *)
let loaded_unchanged vm (cf : Classfile.t) =
  match Rt.find_class vm cf.Classfile.cf_name with
  | Some rc -> String.equal (Classfile.encode rc.Rt.rc_classfile) (Classfile.encode cf)
  | None -> false

(* An unchanged batch: the loaded classes, in the order [load_batch]
   would return them, with their statics reset. *)
let rerun_batch ~persist vm cfs =
  let ordered = sort_batch cfs in
  let rcs =
    List.map
      (fun cf ->
        let rc = Rt.get_class vm cf.Classfile.cf_name in
        Rt.reset_statics rc;
        rc)
      ordered
  in
  if persist then persist_batch vm ordered;
  rcs

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

(* Remove the unit blob of each replaced source text that no loaded
   class still carries. *)
let remove_orphan_sources vm texts =
  let open Pstore in
  let carried text =
    Hashtbl.fold
      (fun _ rc found ->
        found
        ||
        match rc.Rt.rc_classfile.Classfile.cf_source with
        | Some t -> String.equal t text
        | None -> false)
      vm.Rt.classes false
  in
  List.iter
    (fun text ->
      if not (carried text) then begin
        let key = source_key text in
        let session = vm.Rt.session in
        if Store.Session.blob session key <> None then Store.Session.remove_blob session key
      end)
    texts

(* Link a batch, redefining any classes that are already loaded.
   Returns the linked classes. *)
let load_or_redefine_batch ?(persist = true) vm (cfs : Classfile.t list) =
  let names = List.map (fun cf -> cf.Classfile.cf_name) cfs in
  let redefined = List.filter (Rt.is_loaded vm) names in
  if redefined = [] then load_batch ~persist vm cfs
  else if List.for_all (loaded_unchanged vm) cfs then rerun_batch ~persist vm cfs
  else begin
    (* Reconstructing instances below mutates records behind the store's
       journal, so the store is flagged for a full snapshot at its next
       stabilise.  Flag it first: the store refuses while snapshot
       sessions are open, and a refusal must find the class, its blob
       and its instances untouched. *)
    Pstore.Store.mark_dirty (Pstore.Store.Session.store vm.Rt.session);
    (* Affected classes: redefined ones plus their loaded subclasses. *)
    let subclasses =
      List.filter
        (fun cls ->
          (not (List.mem cls redefined))
          && List.exists (fun r -> Rt.is_class_subtype vm cls r) redefined)
        vm.Rt.load_order
    in
    let affected = redefined @ subclasses in
    let old_sources =
      redefined
      |> List.filter_map (fun cls -> (Rt.get_class vm cls).Rt.rc_classfile.Classfile.cf_source)
      |> List.sort_uniq String.compare
    in
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
    let rcs = load_batch ~persist vm cfs in
    if persist then remove_orphan_sources vm old_sources;
    (* Rebuild subclass layouts, parents before children. *)
    let ordered_subclasses =
      List.sort
        (fun a b -> Int.compare (inheritance_depth vm a) (inheritance_depth vm b))
        subclasses
    in
    List.iter (fun cls -> rebuild_layout vm (Rt.get_class vm cls)) ordered_subclasses;
    (* Reconstruct store instances of every affected class in place. *)
    let heap = Pstore.Store.heap (Pstore.Store.Session.store vm.Rt.session) in
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
   original definition order.  The store hands out the one string it
   holds under a key, so the classes of one unit share one source
   string. *)
let relink_persisted vm =
  let open Pstore in
  match Store.Session.blob vm.Rt.session order_blob with
  | None -> []
  | Some order ->
    let names = String.split_on_char '\n' order |> List.filter (fun s -> s <> "") in
    let source key =
      match Store.Session.blob vm.Rt.session key with
      | Some text -> text
      | None -> link_error "missing source blob %s" key
    in
    List.map
      (fun name ->
        match Store.Session.blob vm.Rt.session (class_blob_prefix ^ name) with
        | Some data -> Rt.define_class vm (Classfile.decode ~source data)
        | None -> link_error "missing class blob for %s" name)
      names
