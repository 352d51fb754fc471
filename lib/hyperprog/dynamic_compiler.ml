(* The DynamicCompiler (Section 4.3, Figure 9): translation of
   hyper-programs to textual form, dynamic compilation, class loading,
   and execution.

   Two compilation mechanisms are provided, as in the paper:

   - [Direct]: the compiler is invoked directly, in-process.  Fast, but
     relies on knowledge of the implementation.
   - [Forked]: a fresh compiler universe is instantiated (the analog of
     forking an OS process running the JVM + javac): a new store is booted
     from scratch, the parent's class files are shipped over as the
     "classpath", sources are marshalled across, and the resulting class
     files are marshalled back.  Slow but implementation-independent.
   - [Auto] tries Direct and falls back to Forked, like Figure 9's
     try/catch around the direct invocation. *)

open Pstore
open Minijava

type mode =
  | Direct
  | Forked
  | Auto

(* For tests and benchmarks: force the direct path to fail, modelling the
   paper's "change in the Java implementation" scenario. *)
let direct_path_broken = ref false

(* -- install ----------------------------------------------------------------- *)

let hyper_classes_loaded vm = Rt.is_loaded vm Hyper_src.hyper_program_class

let str_desc = "Ljava.lang.String;"
let class_desc = "Ljava.lang.Class;"
let hp_desc = "Lhyper.HyperProgram;"
let hl_desc = "Lhyper.HyperLinkHP;"

let as_int = Vm.as_int

let rec install vm =
  if not (hyper_classes_loaded vm) then
    ignore (Jcompiler.compile_and_load vm Hyper_src.all_units);
  Registry.upgrade vm;
  register_natives vm

and register_natives vm =
  let dc = Hyper_src.dynamic_compiler_class in
  let reg name desc fn = Rt.register_native vm ~cls:dc ~name ~desc fn in
  reg "getLink" ("(" ^ str_desc ^ "II)" ^ hl_desc) (fun vm args ->
      match args with
      | [ pw; hp; link ] ->
        Registry.get_link vm
          ~password:(Rt.ocaml_string vm pw)
          ~hp:(Int32.to_int (as_int hp))
          ~link:(Int32.to_int (as_int link))
      | _ -> Rt.jerror "java.lang.InternalError" "getLink: wrong arguments");
  reg "generateTextualForm" ("(" ^ hp_desc ^ ")" ^ str_desc) (fun vm args ->
      match args with
      | [ Pvalue.Ref hp_oid ] -> Rt.jstring vm (generate_textual_form vm hp_oid)
      | _ -> Rt.npe ());
  reg "compileClasses"
    ("([" ^ str_desc ^ "[" ^ str_desc ^ ")[" ^ class_desc)
    (fun vm args ->
      match args with
      | [ names; defns ] ->
        let strings v =
          match v with
          | Pvalue.Ref oid ->
            Array.to_list (Store.Session.get_array Rt.(vm.session) oid).Pstore.Heap.elems
            |> List.map (Rt.ocaml_string vm)
          | _ -> Rt.npe ()
        in
        let rcs = compile_strings vm ~names:(strings names) (strings defns) in
        class_mirror_array vm rcs
      | _ -> Rt.jerror "java.lang.InternalError" "compileClasses: wrong arguments");
  reg "compileClass" ("(" ^ str_desc ^ str_desc ^ ")" ^ class_desc) (fun vm args ->
      match args with
      | [ name; defn ] ->
        let name = Rt.ocaml_string vm name in
        let rcs = compile_strings vm ~names:[ name ] [ Rt.ocaml_string vm defn ] in
        (match List.find_opt (fun rc -> String.equal rc.Rt.rc_name name) rcs with
        | Some rc -> Reflect.class_mirror vm rc.Rt.rc_name
        | None -> Rt.jerror "java.lang.NoClassDefFoundError" "%s" name)
      | _ -> Rt.jerror "java.lang.InternalError" "compileClass: wrong arguments");
  reg "compileClasses" ("([" ^ hp_desc ^ ")[" ^ class_desc) (fun vm args ->
      match args with
      | [ Pvalue.Ref arr ] ->
        let hps =
          Array.to_list (Store.Session.get_array Rt.(vm.session) arr).Pstore.Heap.elems
          |> List.map (function
               | Pvalue.Ref oid -> oid
               | _ -> Rt.npe ())
        in
        class_mirror_array vm (compile_hyper_programs vm hps)
      | _ -> Rt.npe ());
  reg "compileClass" ("(" ^ hp_desc ^ ")[" ^ class_desc) (fun vm args ->
      match args with
      | [ Pvalue.Ref hp_oid ] -> class_mirror_array vm (compile_hyper_programs vm [ hp_oid ])
      | _ -> Rt.npe ())

and class_mirror_array vm rcs =
  let mirrors = List.map (fun rc -> Reflect.class_mirror vm rc.Rt.rc_name) rcs in
  Pvalue.Ref (Store.Session.alloc_array Rt.(vm.session) class_desc (Array.of_list mirrors))

(* -- textual form -------------------------------------------------------------- *)

(* addHP then generate (Section 4.1: a reference to each hyper-program
   submitted for translation is recorded in the registry first). *)
and generate_textual_form vm hp_oid =
  ignore (Registry.add_hp vm ~password:Registry.built_in_password hp_oid);
  Textual_form.generate vm hp_oid

(* -- compilation ---------------------------------------------------------------- *)

(* Direct, in-process invocation of the compiler. *)
and compile_direct vm sources =
  if !direct_path_broken then
    failwith "direct compiler invocation unavailable (implementation changed)";
  Jcompiler.compile_and_load ~redefine:true vm sources

(* Simulated forked-process compilation: fresh universe + marshalling. *)
and compile_forked vm sources =
  (* "Write the sources down the pipe." *)
  let payload = Marshal.to_string (sources : string list) [] in
  (* "Fork a JVM running the compiler": boot a fresh universe. *)
  let child_store = Store.create () in
  let child = Boot.boot_fresh child_store in
  (* Ship the parent's class files across as the classpath. *)
  let classpath =
    List.filter_map
      (fun name ->
        if Rt.is_loaded child name then None
        else Option.map (fun rc -> rc.Rt.rc_classfile) (Rt.find_class vm name))
      vm.Rt.load_order
  in
  ignore (Linker.load_batch ~persist:false child classpath);
  (* Child compiles. *)
  let child_sources : string list = Marshal.from_string payload 0 in
  let cfs = Jcompiler.compile_units ~env:(Rt.class_env child) child_sources in
  (* "Read the class files back from the pipe." *)
  let back = Classfile.encode_batch cfs in
  let cfs = Classfile.decode_batch back in
  Linker.load_or_redefine_batch vm cfs

and compile_with_mode ?(mode = Auto) vm sources =
  let mode_label =
    match mode with
    | Direct -> "direct"
    | Forked -> "forked"
    | Auto -> "auto"
  in
  let obs = Store.obs (Store.Session.store Rt.(vm.session)) in
  Obs.span obs Obs.Compile ~label:mode_label (fun () ->
      match mode with
      | Direct -> compile_direct vm sources
      | Forked -> compile_forked vm sources
      | Auto -> begin
        (* Figure 9: try the direct invocation, ignore errors, fall back to
           forking.  Compile errors in the source itself are not caught —
           only failures of the invocation mechanism are. *)
        try compile_direct vm sources with
        | Failure _ -> compile_forked vm sources
      end)

(* Compile plain source strings.  [names] documents the expected class
   names (as in Figure 9's compileClasses(String[], String[])); mismatches
   are reported. *)
and compile_strings ?mode vm ~names sources =
  let rcs = compile_with_mode ?mode vm sources in
  List.iter
    (fun name ->
      if
        name <> ""
        && not (List.exists (fun rc -> String.equal rc.Rt.rc_name name) rcs)
      then
        Rt.jerror "java.lang.NoClassDefFoundError" "expected class %s was not defined" name)
    names;
  rcs

(* Compile hyper-programs (Figure 9's compileClasses(HyperProgram[])).
   Each resulting class also records which hyper-program it came from
   (the hyper-code association of Section 6: the programmer can always
   get back from an executable class to its hyper-program). *)
and compile_hyper_programs ?mode vm hp_oids =
  let sources = List.map (fun hp_oid -> generate_textual_form vm hp_oid) hp_oids in
  let rcs = compile_with_mode ?mode vm sources in
  List.iter2
    (fun hp_oid source ->
      let uid = Storage_form.uid vm hp_oid in
      List.iter
        (fun rc ->
          if rc.Rt.rc_classfile.Classfile.cf_source = Some source then
            Store.Session.set_blob vm.Rt.session
              ("hyper.origin:" ^ rc.Rt.rc_name)
              (string_of_int uid))
        rcs)
    hp_oids sources;
  rcs

let compile_hyper_program ?mode vm hp_oid = compile_hyper_programs ?mode vm [ hp_oid ]

(* -- the hyper-code association (Section 6) --------------------------------

   "The hyper-code abstraction allows a single program representation
   form, the hyper-program, to be presented to the programmer at all
   stages of the software development process."  Given any class compiled
   from a hyper-program, recover that hyper-program. *)

let origin_uid_of_class vm cls =
  match Store.Session.blob vm.Rt.session ("hyper.origin:" ^ cls) with
  | Some s -> int_of_string_opt s
  | None -> None

let hyper_program_of_class vm cls =
  match origin_uid_of_class vm cls with
  | None -> None
  | Some uid -> begin
    match Registry.hp_at vm uid with
    | Pvalue.Ref hp_oid -> Some hp_oid
    | _ -> None (* the hyper-program has been garbage collected *)
  end

(* -- execution -------------------------------------------------------------------- *)

(* Run the principal class's main method (Section 5.4.2's Go button). *)
let run_main vm ~cls argv = Vm.run_main vm ~cls argv

(* Compile a hyper-program and run its principal class. *)
let go ?mode vm hp_oid ~argv =
  let rcs = compile_hyper_programs ?mode vm [ hp_oid ] in
  let principal =
    let declared = Storage_form.class_name vm hp_oid in
    if declared <> "" && List.exists (fun rc -> String.equal rc.Rt.rc_name declared) rcs then
      declared
    else
      match rcs with
      | rc :: _ -> rc.Rt.rc_name
      | [] -> Rt.jerror "java.lang.NoClassDefFoundError" "hyper-program defined no classes"
  in
  run_main vm ~cls:principal argv;
  principal

(* -- error reporting in hyper-program terms -----------------------------------
   The paper: "In the current version the error is described in terms of
   the translated textual form... In a future version, we plan to display
   error messages in terms of the original hyper-program."  Implemented
   here via the textual form's source map. *)

let explain_error vm hp_oid (e : Jcompiler.error) =
  match Textual_form.generate_mapped vm hp_oid with
  | textual, map ->
    let explained = Textual_form.explain vm hp_oid map ~textual ~pos:e.Jcompiler.pos in
    Format.asprintf "%s %a" e.Jcompiler.message Textual_form.pp_explained explained
  | exception _ -> Format.asprintf "%a" Jcompiler.pp_error e
