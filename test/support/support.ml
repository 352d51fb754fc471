(* The shared test-support library: one home for the fixtures that used
   to be copied between the main suite and the crash / scrub / obs
   sub-suites (each is its own dune unit, so plain modules were not
   visible across them).  The per-suite helper modules remain as
   [include]-shims over this one. *)

open Pstore
open Minijava

(* -- Alcotest shorthands -------------------------------------------------- *)

let check_output = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let test name f = Alcotest.test_case name `Quick f

(* -- string helpers ------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length haystack then false
    else String.sub haystack i n = needle || go (i + 1)
  in
  go 0

let index_of haystack needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length haystack then
      Alcotest.failf "%S not found in %S" needle haystack
    else if String.sub haystack i n = needle then i
    else go (i + 1)
  in
  go 0

(* -- files and scratch directories ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let file_size path = (Unix.stat path).Unix.st_size

(* Remove a tree, shrugging off whatever a crashed or fault-injected test
   left behind: unreadable entries, files that vanish mid-walk, dangling
   temp artifacts.  Cleanup must never turn a passing suite red. *)
let rec rm_rf path =
  let kind = try Some (Unix.lstat path).Unix.st_kind with Unix.Unix_error _ -> None in
  match kind with
  | Some Unix.S_DIR ->
    Array.iter
      (fun f -> rm_rf (Filename.concat path f))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | Some _ -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ()

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let with_dir ?(prefix = "store") f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let copy_dir src dst =
  Unix.mkdir dst 0o700;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let temp_store_path ?(prefix = "store") () =
  let path = Filename.temp_file prefix ".hpj" in
  Sys.remove path;
  path

(* Every on-disk artifact a store at [path] can leave: the image, its
   journal, and in-flight temporaries (a crash mid-stabilise leaves
   [.tmp] files behind). *)
let remove_store_artifacts path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:base f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let with_store_file ?prefix f =
  let path = temp_store_path ?prefix () in
  Fun.protect ~finally:(fun () -> remove_store_artifacts path) (fun () -> f path)

(* -- fault domains --------------------------------------------------------- *)

(* A root/blob key that hashes to shard [k] of [count]. *)
let key_for ?(tag = "k") ~count k =
  let rec go i =
    let name = Printf.sprintf "%s%d-%d" tag k i in
    if Manifest.shard_of_key ~count name = k then name else go (i + 1)
  in
  go 0

(* Transient-looking failures: everything a retried stabilise re-runs
   on, which is also everything an injected fault can surface as. *)
let transient = function
  | Faults.Fault_injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

(* -- store fingerprints --------------------------------------------------- *)

(* A deterministic byte-exact digest of everything persistent: heap
   (sorted by oid, next-oid counter included), roots, blobs.  Two stores
   with equal fingerprints agree on all reachable state and oid identity. *)
let fingerprint store = Image.encode (Store.contents store)

(* What the heap's class counts must equal: a walk of its entries keyed
   by [Heap.entry_class], sorted by class. *)
let census_walk heap =
  let module M = Map.Make (String) in
  Heap.fold
    (fun _ entry m ->
      M.update (Heap.entry_class entry) (fun n -> Some (1 + Option.value n ~default:0)) m)
    heap M.empty
  |> M.bindings

(* Fail unless the class counts of [store]'s heap equal a walk. *)
let check_census what store =
  let heap = Store.heap store in
  Alcotest.(check (list (pair string int))) what (census_walk heap) (Heap.class_counts heap)

(* -- scrubbing ------------------------------------------------------------ *)

(* Drive the scrubber until it reports a completed pass, collecting every
   newly quarantined oid along the way. *)
let scrub_pass ?(budget = 512) store =
  let quarantined = ref [] in
  let finished = ref false in
  let steps = ref 0 in
  while not !finished do
    incr steps;
    if !steps > 100_000 then Alcotest.fail "scrubber never completed a pass";
    let r = Store.scrub ~budget store in
    quarantined := !quarantined @ r.Scrub.newly_quarantined;
    if r.Scrub.pass_complete then finished := true
  done;
  !quarantined

(* -- VM fixtures ---------------------------------------------------------- *)

let fresh_store () = Store.create ()

(* A freshly booted VM over a fresh store. *)
let fresh_vm () =
  let store = fresh_store () in
  let vm = Boot.boot_fresh store in
  (store, vm)

(* A VM with the hyper-programming runtime installed. *)
let fresh_hyper_vm () =
  let store, vm = fresh_vm () in
  Hyperprog.Dynamic_compiler.install vm;
  (store, vm)

let compile_into vm sources = ignore (Jcompiler.compile_and_load vm sources)

(* Compile and run `Main.main([])`, returning captured System output. *)
let run_program ?(cls = "Main") vm sources =
  compile_into vm sources;
  Vm.run_main vm ~cls [];
  Rt.take_output vm

(* Compile and run a statement block wrapped in a main method. *)
let run_body vm body =
  run_program vm
    [ "public class Main { public static void main(String[] args) {\n" ^ body ^ "\n} }" ]

let person_source =
  {|public class Person {
  private String name;
  private Person spouse;
  public Person(String n) { name = n; }
  public String getName() { return name; }
  public Person getSpouse() { return spouse; }
  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }
  public String toString() { return "Person(" + name + ")"; }
}
|}

let new_person vm name =
  Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm name ]

let oid_of = function
  | Pvalue.Ref oid -> oid
  | v -> Alcotest.failf "expected a reference, got %s" (Pvalue.to_string v)

(* Build the MarryExample hyper-program (the paper's Figure 5: a method
   link and two object links) over two fresh persons; returns
   (hp oid, vangelis value, mary value). *)
let marry_example vm =
  compile_into vm [ person_source ];
  let vangelis = new_person vm "vangelis" in
  let mary = new_person vm "mary" in
  let text =
    "public class MarryExample {\n  public static void main(String[] args) {\n    (, );\n  }\n}\n"
  in
  let base = index_of text "(, );" in
  let links =
    [
      {
        Hyperprog.Storage_form.link =
          Hyperprog.Hyperlink.L_static_method
            { cls = "Person"; name = "marry"; desc = "(LPerson;LPerson;)V" };
        label = "Person.marry";
        pos = base;
      };
      {
        Hyperprog.Storage_form.link = Hyperprog.Hyperlink.L_object (oid_of vangelis);
        label = "vangelis";
        pos = base + 1;
      };
      {
        Hyperprog.Storage_form.link = Hyperprog.Hyperlink.L_object (oid_of mary);
        label = "mary";
        pos = base + 3;
      };
    ]
  in
  let hp = Hyperprog.Storage_form.create vm ~class_name:"MarryExample" ~text ~links in
  (hp, vangelis, mary)

(* Put one damaged MarryExample program into the store file at [path]
   (made by `hpjava init`), for the suites that then drive the binary:
   the program is rooted at "marry" and registered, then either its
   link-0 [HyperLinkHP] record ([`Link0]) or its [HyperProgram] record
   ([`Program]) is quarantined, and the store is stabilised and closed.
   Returns the program's registry uid. *)
let damage_marry path ~damaged =
  let store = Store.open_file path in
  let vm = Boot.vm_for store in
  Hyperprog.Dynamic_compiler.install vm;
  let hp, _, _ = marry_example vm in
  Store.Session.set_root (Store.default_session store) "marry" (Pvalue.Ref hp);
  let uid = Hyperprog.Registry.add_hp vm ~password:Hyperprog.Registry.built_in_password hp in
  let oid =
    match damaged with
    | `Link0 -> List.hd (Hyperprog.Storage_form.link_oids vm hp)
    | `Program -> hp
  in
  Store.quarantine_oid store oid "record corrupt (test)";
  Store.stabilise store;
  Store.close store;
  uid

(* -- expectation helpers -------------------------------------------------- *)

(* Expect a Java-level error of the given class. *)
let expect_jerror jclass f =
  match f () with
  | _ -> Alcotest.failf "expected %s, but no error was raised" jclass
  | exception Rt.Jerror { jclass = actual; _ } ->
    Alcotest.(check string) "error class" jclass actual

(* Expect a compile error. *)
let expect_compile_error f =
  match f () with
  | _ -> Alcotest.fail "expected a compile error"
  | exception Jcompiler.Compile_error _ -> ()
