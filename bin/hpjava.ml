(* hpjava — command-line driver for the hyper-programming system.

   A store file is the unit of persistence; every subcommand opens (or
   creates) one, performs its action, and stabilises.

     hpjava init store.hpj
     hpjava compile store.hpj Person.java
     hpjava run store.hpj MarryExample arg1 arg2
     hpjava browse store.hpj [--root NAME]
     hpjava census store.hpj
     hpjava roots store.hpj
     hpjava gc store.hpj
     hpjava export-html store.hpj out/
     hpjava demo
*)

open Cmdliner
open Pstore
open Minijava
open Hyperprog

(* Only [init] and [compile] may create a store that is not there yet;
   every other subcommand treats a missing path as the error it is —
   silently handing [census] or [browse] a fresh empty store used to
   make black-box scripting impossible. *)
let missing_store path =
  Printf.eprintf "hpjava: no store at %s (run `hpjava init %s` first)\n" path path;
  exit 2

let load_store ?(create = false) ?(shards = 1) path =
  if Sys.file_exists path then Store.open_file path
  else if create then begin
    let store =
      Store.create ~config:{ Store.Config.default with Store.Config.shards = shards } ()
    in
    Store.configure store { (Store.config store) with Store.Config.backing = Some path };
    store
  end
  else missing_store path

let session_of ?create ?shards path =
  let store = load_store ?create ?shards path in
  let vm = Boot.vm_for store in
  vm.Rt.echo <- true;
  Dynamic_compiler.install vm;
  (store, vm)

let store_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Store file")

(* -- init ------------------------------------------------------------------ *)

let init_cmd =
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the object space into $(docv) shards (fixed for the store's \
             lifetime), each with its own image file, journal, quarantine set and health \
             state, so a compaction rewrites only the shards that need it and a \
             failing shard is demoted alone.  1 (the default) keeps the flat layout: the \
             image at STORE and its journal at STORE.wal")
  in
  let run path shards =
    if shards < 1 then begin
      Printf.eprintf "hpjava: --shards must be >= 1\n";
      exit 2
    end;
    let store, vm = session_of ~create:true ~shards path in
    Store.stabilise store;
    Printf.printf "initialised %s: %d classes, %d objects%s\n" path
      (List.length vm.Rt.load_order) (Store.size store)
      (if shards > 1 then Printf.sprintf ", %d shards" shards else "")
  in
  Cmd.v
    (Cmd.info "init"
       ~doc:
         "Create and bootstrap a store: the image plus its write-ahead journal, so every \
          later stabilise appends a fsynced delta instead of rewriting the image")
    Term.(const run $ store_arg $ shards_arg)

(* -- compile ----------------------------------------------------------------- *)

let compile_cmd =
  let file_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"Java source file")
  in
  let run path file =
    let store, vm = session_of ~create:true path in
    let ic = open_in file in
    let source = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (try
       let rcs = Dynamic_compiler.compile_strings ~mode:Direct vm ~names:[] [ source ] in
       List.iter (fun rc -> Printf.printf "compiled %s\n" rc.Rt.rc_name) rcs;
       Store.stabilise store
     with Jcompiler.Compile_error e ->
       Format.eprintf "compile error: %a@." Jcompiler.pp_error e;
       exit 1)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Java source file into the store")
    Term.(const run $ store_arg $ file_arg)

(* -- run ---------------------------------------------------------------------- *)

let run_cmd =
  let class_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS" ~doc:"Main class")
  in
  let argv_arg = Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS") in
  let run path cls argv =
    let store, vm = session_of path in
    (try
       Vm.run_main vm ~cls argv;
       Store.stabilise store
     with
    | Rt.Jerror { jclass; message; _ } ->
      Printf.eprintf "%s: %s\n" jclass message;
      exit 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a class's main method")
    Term.(const run $ store_arg $ class_arg $ argv_arg)

(* -- browse ------------------------------------------------------------------- *)

let browse_cmd =
  let root_arg =
    Arg.(value & opt (some string) None & info [ "root" ] ~docv:"NAME" ~doc:"Open a named root")
  in
  let run path root =
    let _store, vm = session_of path in
    let b = Browser.Ocb.create vm in
    (match root with
    | None -> ignore (Browser.Ocb.open_roots b)
    | Some name -> begin
      match Store.Session.root vm.Rt.session name with
      | Some (Pvalue.Ref oid) -> ignore (Browser.Ocb.open_object b oid)
      | Some v -> Printf.printf "%s = %s\n" name (Pvalue.to_string v)
      | None ->
        Printf.eprintf "no root named %s\n" name;
        exit 1
    end);
    print_string (Browser.Render.browser b)
  in
  Cmd.v
    (Cmd.info "browse" ~doc:"Browse the persistent store")
    Term.(const run $ store_arg $ root_arg)

(* -- census / roots / gc -------------------------------------------------------- *)

let census_cmd =
  let run path =
    let store, _vm = session_of path in
    print_string (Browser.Render.census store)
  in
  Cmd.v (Cmd.info "census" ~doc:"Instance counts per class") Term.(const run $ store_arg)

let roots_cmd =
  let run path =
    let _store, vm = session_of path in
    let session = vm.Rt.session in
    List.iter
      (fun name ->
        let v = Option.value (Store.Session.root session name) ~default:Pvalue.Null in
        Printf.printf "%-24s %s\n" name (Pvalue.to_string v))
      (Store.Session.root_names session)
  in
  Cmd.v (Cmd.info "roots" ~doc:"List persistent roots") Term.(const run $ store_arg)

let gc_cmd =
  let run path =
    let store, vm = session_of path in
    let stats = Store.gc store in
    Format.printf "%a@." Gc.pp_stats stats;
    (* Keep the registry consistent with what the GC reclaimed, as the
       shell's gc does. *)
    ignore (Registry.prune vm);
    Store.stabilise store
  in
  Cmd.v (Cmd.info "gc" ~doc:"Garbage-collect the store") Term.(const run $ store_arg)

(* -- check: full integrity + quarantine report, scriptable exit code -------------- *)

let check_cmd =
  let run path =
    let store = load_store path in
    let violations = Integrity.check store in
    let fatal = List.filter Integrity.fatal violations in
    List.iter
      (fun v -> Format.eprintf "violation: %a@." Integrity.pp_violation v)
      violations;
    let stats = Store.stats store in
    Printf.printf "integrity %s: %d objects, %d quarantined, %d violation%s (%d fatal)\n"
      (if fatal = [] then "ok" else "FAILED")
      (Store.size store) stats.Store.quarantined (List.length violations)
      (if List.length violations = 1 then "" else "s")
      (List.length fatal);
    if Store.shards store > 1 then begin
      List.iter
        (fun (info : Store.shard_info) ->
          Printf.printf "  shard %d (%s): %d objects, %d quarantined, %d journal bytes\n"
            info.Store.shard info.Store.state info.Store.objects info.Store.quarantined
            info.Store.journal_bytes)
        (Store.shard_info store);
      if stats.Store.unhealthy_shards > 0 then
        Printf.printf "  unhealthy shards: %d (run `hpjava shell` and `repair all`)\n"
          stats.Store.unhealthy_shards
    end;
    if fatal <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify full store integrity (referential soundness, quarantine report); exits \
          nonzero on any fatal violation")
    Term.(const run $ store_arg)

(* -- export-html ------------------------------------------------------------------ *)

let export_cmd =
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory")
  in
  let run path dir =
    let _store, vm = session_of path in
    let names = Html_export.export_all vm ~dir in
    Printf.printf "exported %d hyper-programs to %s\n" (List.length names) dir
  in
  Cmd.v
    (Cmd.info "export-html" ~doc:"Publish hyper-programs as HTML")
    Term.(const run $ store_arg $ dir_arg)

(* -- new: instantiate a class and bind it to a root ------------------------------ *)

let new_cmd =
  let class_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS" ~doc:"Class to instantiate")
  in
  let root_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"ROOT" ~doc:"Root name to bind")
  in
  let args_arg = Arg.(value & pos_right 2 string [] & info [] ~docv:"ARGS" ~doc:"String constructor arguments") in
  let run path cls root args =
    let store, vm = session_of path in
    (try
       let desc =
         "(" ^ String.concat "" (List.map (fun _ -> "Ljava.lang.String;") args) ^ ")V"
       in
       let obj = Vm.new_instance vm ~cls ~desc (List.map (Rt.jstring vm) args) in
       Store.Session.set_root vm.Rt.session root obj;
       Store.stabilise store;
       Printf.printf "%s = %s\n" root (Vm.to_string vm obj)
     with Rt.Jerror { jclass; message; _ } ->
       Printf.eprintf "%s: %s\n" jclass message;
       exit 1)
  in
  Cmd.v
    (Cmd.info "new" ~doc:"Instantiate a class (String-arg constructor) and bind it to a root")
    Term.(const run $ store_arg $ class_arg $ root_arg $ args_arg)

(* -- run-hp: compile a .hp hyper-source file ------------------------------------ *)

let run_hp_cmd =
  let file_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE.hp" ~doc:"Hyper-source file")
  in
  let go_arg = Arg.(value & flag & info [ "go" ] ~doc:"Run the principal class's main after compiling") in
  let run path file go =
    let store, vm = session_of path in
    let ic = open_in file in
    let source = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (try
       let hp = Hyper_source.to_storage vm source in
       let root = "hp:" ^ Filename.remove_extension (Filename.basename file) in
       Store.Session.set_root vm.Rt.session root (Pvalue.Ref hp);
       if go then begin
         let principal = Dynamic_compiler.go vm hp ~argv:[] in
         Printf.printf "ran %s.main\n" principal
       end
       else begin
         let rcs = Dynamic_compiler.compile_hyper_program vm hp in
         List.iter (fun rc -> Printf.printf "compiled %s\n" rc.Rt.rc_name) rcs
       end;
       Store.stabilise store
     with
    | Hyper_source.Format_error msg ->
      Printf.eprintf "bad hyper-source: %s\n" msg;
      exit 1
    | Jcompiler.Compile_error e ->
      Format.eprintf "compile error: %a@." Jcompiler.pp_error e;
      exit 1)
  in
  Cmd.v
    (Cmd.info "run-hp" ~doc:"Compile (and optionally run) a .hp hyper-source file")
    Term.(const run $ store_arg $ file_arg $ go_arg)

(* -- print-hp: export a stored hyper-program as hyper-source --------------------- *)

let print_hp_cmd =
  let root_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ROOT" ~doc:"Root holding the hyper-program")
  in
  let run path root =
    let _store, vm = session_of path in
    match Store.Session.root vm.Rt.session root with
    | Some (Pvalue.Ref hp) when Storage_form.is_hyper_program vm hp -> begin
      match Hyper_source.of_storage vm hp with
      | source -> print_string source
      | exception Hyper_source.Format_error msg ->
        Printf.eprintf "cannot print %s as hyper-source: %s\n" root msg;
        exit 1
    end
    | _ ->
      Printf.eprintf "root %s does not hold a hyper-program\n" root;
      exit 1
  in
  Cmd.v
    (Cmd.info "print-hp" ~doc:"Print a stored hyper-program as hyper-source")
    Term.(const run $ store_arg $ root_arg)

(* -- evolve: schema evolution by linguistic reflection ---------------------------- *)

let evolve_cmd =
  let class_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS" ~doc:"Class to evolve")
  in
  let file_arg =
    Arg.(required & pos 2 (some file) None & info [] ~docv:"NEW.java" ~doc:"New class source")
  in
  let converter_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "converter" ] ~docv:"CONV.java"
          ~doc:"Source of a class with `public static void convert(CLASS obj)`")
  in
  let run path cls file converter =
    let store, vm = session_of path in
    let read f =
      let ic = open_in f in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    (try
       let converter = Option.map read converter in
       let result =
         Evolution.evolve ?converter vm ~class_name:cls ~new_source:(read file) ()
       in
       Printf.printf "evolved %s: %d instances reconstructed (old version archived as %s)\n"
         result.Evolution.class_name result.Evolution.instances_updated
         result.Evolution.old_version_blob;
       Store.stabilise store
     with
    | Evolution.Evolution_error msg ->
      Printf.eprintf "evolution failed: %s\n" msg;
      exit 1
    | Jcompiler.Compile_error e ->
      Format.eprintf "compile error: %a@." Jcompiler.pp_error e;
      exit 1)
  in
  Cmd.v
    (Cmd.info "evolve" ~doc:"Evolve a persistent class, reconstructing its instances in place")
    Term.(const run $ store_arg $ class_arg $ file_arg $ converter_arg)

(* -- shell: the interactive hyper-programming session ----------------------------- *)

let shell_cmd =
  let echo_arg = Arg.(value & flag & info [ "echo" ] ~doc:"Echo program output as it happens") in
  let run path echo =
    if not (Sys.file_exists path) then missing_store path;
    Hyperui.Shell.run ~store_path:path ~input:stdin ~echo
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive hyper-programming session (also pipe-scriptable)")
    Term.(const run $ store_arg $ echo_arg)

(* -- serve / connect: the multi-client server front-end --------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on (default: STORE.sock)")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on loopback TCP port $(docv)")
  in
  let run path socket tcp =
    (* No silent store creation: serving a store that is not there is
       the operator error `init` exists to fix. *)
    let store, vm = session_of path in
    let socket = Option.value socket ~default:(path ^ ".sock") in
    Server.Serve.run ?tcp_port:tcp ~socket ~store ~vm ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the store to wire-protocol clients (snapshot-isolated sessions, one per \
          connection) and the read-only live HTML dashboard")
    Term.(const run $ store_arg $ socket_arg $ tcp_arg)

let connect_cmd =
  let socket_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Server Unix socket (as printed by `hpjava serve`)")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead of a Unix socket")
  in
  let password_arg =
    Arg.(
      value
      & opt string Registry.built_in_password
      & info [ "password" ] ~docv:"PW" ~doc:"Registry password presented at hello")
  in
  let run socket tcp password =
    let target, addr =
      match (socket, tcp) with
      | Some path, None -> (path, Server.Client.unix_addr path)
      | None, Some hostport -> begin
        match String.rindex_opt hostport ':' with
        | Some i -> begin
          let host = String.sub hostport 0 i in
          let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some port -> begin
            try (hostport, Server.Client.tcp_addr host port)
            with Stdlib.Failure _ ->
              Printf.eprintf "hpjava: %s is not an address (need a numeric host)\n" host;
              exit 2
          end
          | None ->
            Printf.eprintf "hpjava: bad port in --tcp %s\n" hostport;
            exit 2
        end
        | None ->
          Printf.eprintf "hpjava: --tcp needs HOST:PORT, got %s\n" hostport;
          exit 2
      end
      | _ ->
        Printf.eprintf "hpjava: connect needs a SOCKET path or --tcp HOST:PORT (not both)\n";
        exit 2
    in
    match Server.Client.connect ~password addr with
    | client -> Hyperui.Remote_shell.run ~client ~input:stdin
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "hpjava: cannot reach server at %s: %s (is `hpjava serve` running?)\n"
        target (Unix.error_message e);
      exit 2
    | exception Server.Client.Server_refused { code; message } ->
      Printf.eprintf "hpjava: connection refused (%s): %s\n" code message;
      exit 1
  in
  Cmd.v
    (Cmd.info "connect" ~doc:"Connect to a running `hpjava serve` (interactive or piped)")
    Term.(const run $ socket_arg $ tcp_arg $ password_arg)

(* -- source: the stored source of a persistent class ------------------------------ *)

let source_cmd =
  let class_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS" ~doc:"Class name")
  in
  let run path cls =
    let _store, vm = session_of path in
    match Rt.find_class vm cls with
    | Some rc -> begin
      match rc.Rt.rc_classfile.Classfile.cf_source with
      | Some source -> print_string source
      | None ->
        Printf.eprintf "class %s has no recorded source\n" cls;
        exit 1
    end
    | None ->
      Printf.eprintf "class %s is not loaded\n" cls;
      exit 1
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Print the stored source of a persistent class")
    Term.(const run $ store_arg $ class_arg)

(* -- demo --------------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    (* The Figure 12 session, scripted. *)
    let store = Store.create () in
    let session = Hyperui.Session.create ~echo:true store in
    let vm = Hyperui.Session.vm session in
    ignore
      (Jcompiler.compile_and_load vm
         [
           "public class Person {\n  private String name;\n  private Person spouse;\n\
           \  public Person(String n) { name = n; }\n\
           \  public Person getSpouse() { return spouse; }\n\
           \  public static void marry(Person a, Person b) { a.spouse = b; b.spouse = a; }\n\
           \  public String toString() { return \"Person(\" + name + \")\"; }\n}\n";
         ]);
    let mk name =
      Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm name ]
    in
    let vangelis = mk "vangelis" and mary = mk "mary" in
    Store.Session.set_root vm.Rt.session "vangelis" vangelis;
    Store.Session.set_root vm.Rt.session "mary" mary;
    let b = Hyperui.Session.browser session in
    let roots_panel = Browser.Ocb.open_roots b in
    let _id, ed = Hyperui.Session.new_editor ~class_name:"MarryExample" session in
    Editor.User_editor.type_text ed
      "public class MarryExample {\n  public static void main(String[] args) {\n    ";
    let cls_panel = Browser.Ocb.open_class b "Person" in
    let row_of panel pred =
      let rows = Browser.Ocb.rows b panel in
      let rec go i = function
        | [] -> failwith "row not found"
        | r :: rest -> if pred r then i else go (i + 1) rest
      in
      go 0 rows
    in
    let marry = row_of cls_panel (fun r -> r.Browser.Ocb.row_display = "marry(LPerson;LPerson;)V") in
    ignore (Hyperui.Session.insert_link_from_row session ~row:marry);
    Editor.User_editor.type_text ed "(";
    Browser.Ocb.bring_to_front b roots_panel.Browser.Ocb.panel_id;
    let v = row_of roots_panel (fun r -> r.Browser.Ocb.row_label = "vangelis") in
    ignore (Hyperui.Session.insert_link_from_row session ~row:v);
    Editor.User_editor.type_text ed ", ";
    let m = row_of roots_panel (fun r -> r.Browser.Ocb.row_label = "mary") in
    ignore (Hyperui.Session.insert_link_from_row session ~row:m);
    Editor.User_editor.type_text ed ");\n  }\n}\n";
    print_endline "=== the hyper-programming user interface (Figure 12) ===";
    print_string (Hyperui.Session.render session);
    print_endline "\n=== Go ===";
    (match Hyperui.Session.go session with
    | Ok principal -> Printf.printf "ran %s.main\n" principal
    | Error e -> Printf.printf "failed: %s\n" e);
    let spouse = Vm.call_virtual vm ~recv:vangelis ~name:"getSpouse" ~desc:"()LPerson;" [] in
    Printf.printf "vangelis.getSpouse() = %s\n" (Vm.to_string vm spouse);
    print_endline "\n=== session log ===";
    List.iter print_endline (Hyperui.Session.events session)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the scripted Figure 12 session") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "hpjava" ~version:"1.0.0" ~doc:"Hyper-programming in Java, reproduced in OCaml")
    [ init_cmd; compile_cmd; run_cmd; new_cmd; run_hp_cmd; print_hp_cmd; evolve_cmd; shell_cmd; serve_cmd; connect_cmd; source_cmd; browse_cmd; census_cmd; roots_cmd; gc_cmd; check_cmd; export_cmd; demo_cmd ]

(* The macro-workload harness's crash injector: with HPJAVA_KILL_AT_BYTE=N
   in the environment, the process SIGKILLs itself after N bytes of store
   I/O — a deterministic, seed-replayable power cut mid-stabilise. *)
let arm_crash_injector () =
  match Sys.getenv_opt "HPJAVA_KILL_AT_BYTE" with
  | None -> ()
  | Some n -> begin
    match int_of_string_opt n with
    | Some b when b >= 0 -> Faults.arm (Faults.Kill_after_bytes b)
    | _ ->
      Printf.eprintf "hpjava: HPJAVA_KILL_AT_BYTE must be a non-negative integer, got %s\n" n;
      exit 2
  end

(* Every failure path must exit nonzero with a one-line stderr message —
   the E2E harness asserts on exactly that, and a backtrace dump is not a
   message.  [~catch:false] keeps cmdliner from printing one. *)
let () =
  arm_crash_injector ();
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception e ->
    Printf.eprintf "hpjava: %s\n" (Printexc.to_string e);
    exit 3
