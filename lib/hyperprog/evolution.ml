(* Schema evolution through linguistic reflection (Section 7).

   "Since a hyper-programming system can ensure that the hyper-program
   source text is always available for any persistent class that was
   created within the system, it is possible to write an evolution program
   that updates the source, re-compiles it and reconstructs the persistent
   data."

   Evolving class C:
   1. fetch C's stored source (every class file carries it),
   2. archive the old class file (and with it the old source),
   3. transform the source and recompile it with the dynamic compiler —
      the linker redefines C, rebuilds the layouts of loaded subclasses,
      and reconstructs every store instance IN PLACE: oids are preserved,
      so every hyper-link to an evolved object remains valid,
   4. optionally run a user-supplied converter method (itself compiled by
      linguistic reflection) on each reconstructed instance. *)

open Pstore
open Minijava

exception Evolution_error of string

let evolution_error fmt = Format.kasprintf (fun s -> raise (Evolution_error s)) fmt

type result = {
  class_name : string;
  instances_updated : int;
  affected_classes : string list; (* C and its loaded subclasses *)
  old_version_blob : string; (* archive key of the previous class file *)
}

let bootstrap_prefixes = [ "java.lang"; "java.util"; "hyper."; "compiler." ]

let is_bootstrap name =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    bootstrap_prefixes

let source_of_class vm name =
  match Rt.find_class vm name with
  | Some rc -> rc.Rt.rc_classfile.Classfile.cf_source
  | None -> None

(* All loaded classes whose super chain passes through [name], excluding
   [name] itself. *)
let loaded_subclasses vm name =
  List.filter
    (fun cls -> (not (String.equal cls name)) && Rt.is_class_subtype vm cls name)
    vm.Rt.load_order

let archive_key name version = Printf.sprintf "minijava.class-archive:%s:v%d" name version

let archive_old_version vm name cf =
  let session = vm.Rt.session in
  let rec free_version v =
    if Store.Session.blob session (archive_key name v) = None then v else free_version (v + 1)
  in
  let v = free_version 1 in
  let key = archive_key name v in
  Store.Session.set_blob session key (Classfile.encode cf);
  key

let count_instances vm classes =
  let n = ref 0 in
  Pstore.Heap.iter
    (fun _ entry ->
      match entry with
      | Pstore.Heap.Record r when List.mem r.Pstore.Heap.class_name classes -> incr n
      | _ -> ())
    (Store.heap (Store.Session.store vm.Rt.session));
  !n

(* The evolution driver. *)
let evolve ?converter ?mode vm ~class_name ~new_source () =
  if is_bootstrap class_name then
    evolution_error "refusing to evolve bootstrap class %s" class_name;
  let old_rc =
    match Rt.find_class vm class_name with
    | Some rc -> rc
    | None -> evolution_error "class %s is not loaded" class_name
  in
  let affected = class_name :: loaded_subclasses vm class_name in
  let old_version_blob = archive_old_version vm class_name old_rc.Rt.rc_classfile in
  let instances = count_instances vm affected in
  (* The dynamic compiler redefines the class; the linker migrates the
     instances (see Linker.load_or_redefine_batch). *)
  ignore (Dynamic_compiler.compile_strings ?mode vm ~names:[ class_name ] [ new_source ]);
  (* Run the user converter, if given: a class defining
     `public static void convert(C obj)`, compiled reflectively. *)
  (match converter with
  | None -> ()
  | Some converter_source -> begin
    let conv_rcs = Dynamic_compiler.compile_strings ?mode vm ~names:[] [ converter_source ] in
    let conv_rc =
      match conv_rcs with
      | rc :: _ -> rc
      | [] -> evolution_error "converter source defined no classes"
    in
    let desc = Printf.sprintf "(L%s;)V" class_name in
    Pstore.Heap.iter
      (fun oid entry ->
        match entry with
        | Pstore.Heap.Record r when String.equal r.Pstore.Heap.class_name class_name ->
          ignore
            (Vm.call_static vm ~cls:conv_rc.Rt.rc_name ~name:"convert" ~desc
               [ Pvalue.Ref oid ])
        | _ -> ())
      (Store.heap (Store.Session.store vm.Rt.session))
  end);
  { class_name; instances_updated = instances; affected_classes = affected; old_version_blob }

(* Evolve using the stored source and a source-to-source transform. *)
let evolve_with ?converter ?mode vm ~class_name ~transform () =
  match source_of_class vm class_name with
  | None -> evolution_error "no stored source for class %s" class_name
  | Some source -> evolve ?converter ?mode vm ~class_name ~new_source:(transform source) ()

(* List archived versions of a class (version, class file). *)
let archived_versions vm class_name =
  let session = vm.Rt.session in
  let rec go v acc =
    match Store.Session.blob session (archive_key class_name v) with
    | Some data -> go (v + 1) ((v, Classfile.decode data) :: acc)
    | None -> List.rev acc
  in
  go 1 []
