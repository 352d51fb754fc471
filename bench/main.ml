(* Benchmark harness: one section per table / figure of the paper (see
   DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   Each section prints the measured series; several also print the
   qualitative artefact the paper shows (the Table 1 legality matrix, the
   Figure 8 textual form) so the output can be compared with the paper
   directly.  Run with `dune exec bench/main.exe`. *)

open Bechamel
open Toolkit
open Pstore
open Minijava
open Hyperprog

(* ---------------------------------------------------------------------- *)
(* Harness                                                                 *)
(* ---------------------------------------------------------------------- *)

let run_group ~name tests =
  Printf.printf "\n== %s ==\n%!" name;
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.filter_map
    (fun (k, v) ->
      match Analyze.OLS.estimates v with
      | Some (estimate :: _) ->
        Printf.printf "  %-56s %14.1f ns/run\n%!" k estimate;
        Some (k, estimate)
      | Some [] | None ->
        Printf.printf "  %-56s   (no estimate)\n%!" k;
        None)
    rows

let find_estimate rows needle =
  List.find_map
    (fun (k, v) ->
      let contains =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length k && (String.sub k i n = needle || go (i + 1))
        in
        go 0
      in
      if contains then Some v else None)
    rows

let print_ratio rows ~slow ~fast ~label =
  match find_estimate rows slow, find_estimate rows fast with
  | Some s, Some f when f > 0. -> Printf.printf "  -> %s: %.1fx\n%!" label (s /. f)
  | _ -> ()

let oid_of = Workloads.oid_of

(* ---------------------------------------------------------------------- *)
(* Table 1: hyper-link kinds vs productions                                *)
(* ---------------------------------------------------------------------- *)

let table1 () =
  let _store, vm = Workloads.fresh_vm () in
  ignore (Jcompiler.compile_and_load vm [ "public interface Marker { }" ]);
  let env = Rt.class_env vm in
  Printf.printf "\n== Table 1: hyper-links and productions ==\n";
  Printf.printf "  %-18s %-15s %s\n" "Hyper-link To" "Production" "legal in context";
  List.iter
    (fun (kind, production, legal) ->
      Printf.printf "  %-18s %-15s %b\n" kind production legal)
    (Productions.table1 vm ~env);
  (* Throughput of the syntactic-legality check itself. *)
  let flat =
    {
      Editing_form.text = "public class T { void m() { Object x = ; } }";
      flat_links = [];
    }
  in
  let pos =
    let t = flat.Editing_form.text in
    let pat = "; } }" in
    let rec find i = if String.sub t i (String.length pat) = pat then i else find (i + 1) in
    find 0
  in
  let obj = Store.Session.alloc_string vm.Rt.session "witness" in
  ignore
    (run_group ~name:"table1"
       [
         Test.make ~name:"production-check (legal)"
           (Staged.stage (fun () ->
                Productions.insertion_legal ~env flat ~pos ~link:(Hyperlink.L_object obj)));
         Test.make ~name:"production-check (illegal)"
           (Staged.stage (fun () ->
                Productions.insertion_legal ~env flat ~pos ~link:(Hyperlink.L_type Jtype.Int)));
       ])

(* ---------------------------------------------------------------------- *)
(* Figures 1-6: composing hyper-programs, forms, link following            *)
(* ---------------------------------------------------------------------- *)

let figs_compose () =
  let _store, vm, persons = Workloads.vm_with_persons 2 in
  let p1 = List.nth persons 0 and p2 = List.nth persons 1 in
  let hp = Workloads.marry_example vm p1 p2 in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  let form = Editing_form.of_storage vm hp in
  ignore
    (run_group ~name:"fig2-6"
       [
         Test.make ~name:"fig2 compose (storage form creation)"
           (Staged.stage (fun () -> Workloads.marry_example vm p1 p2));
         Test.make ~name:"fig5 editing->storage translation"
           (Staged.stage (fun () -> Editing_form.to_storage vm form));
         Test.make ~name:"fig5 storage->editing translation"
           (Staged.stage (fun () -> Editing_form.of_storage vm hp));
         Test.make ~name:"fig1 follow object link (browser open)"
           (Staged.stage (fun () ->
                let b = Browser.Ocb.create vm in
                Browser.Ocb.rows b (Browser.Ocb.open_object b (oid_of p1))));
       ])

(* ---------------------------------------------------------------------- *)
(* Figure 7: registry getLink + weak reclamation                           *)
(* ---------------------------------------------------------------------- *)

let fig7 () =
  let _store, vm, persons = Workloads.vm_with_persons 2 in
  let p1 = List.nth persons 0 and p2 = List.nth persons 1 in
  let hp = Workloads.marry_example vm p1 p2 in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  ignore
    (run_group ~name:"fig7"
       [
         Test.make ~name:"get-link (registry retrieval)"
           (Staged.stage (fun () ->
                Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1));
         Test.make ~name:"add-hp (idempotent re-registration)"
           (Staged.stage (fun () ->
                Registry.add_hp vm ~password:Registry.built_in_password hp));
       ]);
  (* Weak reclamation: N registered hyper-programs lose their last user
     reference; one GC must clear all N weak slots. *)
  Printf.printf "\n== fig7 weak-reclaim: discarded hyper-programs are collected ==\n";
  List.iter
    (fun n ->
      let store, vm, persons = Workloads.vm_with_persons 2 in
      let p1 = List.nth persons 0 and p2 = List.nth persons 1 in
      for _ = 1 to n do
        let hp = Workloads.marry_example vm p1 p2 in
        ignore (Registry.add_hp vm ~password:Registry.built_in_password hp)
      done;
      let live_before = List.length (Registry.live_programs vm) in
      let t0 = Unix.gettimeofday () in
      let stats = Store.gc store in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      Printf.printf
        "  n=%4d: live before gc %4d, weak cleared %4d, live after %4d   (gc %.2f ms)\n"
        n live_before stats.Gc.weak_cleared
        (List.length (Registry.live_programs vm))
        dt)
    [ 10; 100; 1000 ]

(* ---------------------------------------------------------------------- *)
(* Figure 8: textual-form generation                                       *)
(* ---------------------------------------------------------------------- *)

let fig8 () =
  let _store, vm, persons = Workloads.vm_with_persons 2 in
  let p1 = List.nth persons 0 and p2 = List.nth persons 1 in
  let hp = Workloads.marry_example vm p1 p2 in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  Printf.printf "\n== Figure 8: the generated textual form ==\n%s"
    (Dynamic_compiler.generate_textual_form vm hp);
  let sized =
    List.map
      (fun links ->
        let hp =
          Workloads.synthetic_hyper_program vm
            ~name:(Printf.sprintf "Gen%d" links)
            ~lines:20 ~links
        in
        Store.Session.set_root vm.Rt.session (Printf.sprintf "gen%d" links) (Pvalue.Ref hp);
        ignore (Registry.add_hp vm ~password:Registry.built_in_password hp);
        (links, hp))
      [ 0; 8; 32; 128 ]
  in
  ignore
    (run_group ~name:"fig8"
       (List.map
          (fun (links, hp) ->
            Test.make
              ~name:(Printf.sprintf "generate-textual (%d links)" links)
              (Staged.stage (fun () -> Textual_form.generate vm hp)))
          sized))

(* ---------------------------------------------------------------------- *)
(* Figure 9: direct vs forked dynamic compilation                          *)
(* ---------------------------------------------------------------------- *)

let fig9 () =
  let _store, vm, persons = Workloads.vm_with_persons 2 in
  let p1 = List.nth persons 0 and p2 = List.nth persons 1 in
  let hp = Workloads.marry_example vm p1 p2 in
  Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  let textual = Dynamic_compiler.generate_textual_form vm hp in
  let classfile =
    List.hd (Jcompiler.compile_units ~env:(Rt.class_env vm) [ textual ])
  in
  let encoded = Classfile.encode classfile in
  let rows =
    run_group ~name:"fig9"
      [
        Test.make ~name:"compile-direct (in-process)"
          (Staged.stage (fun () ->
               Dynamic_compiler.compile_strings ~mode:Dynamic_compiler.Direct vm
                 ~names:[ "MarryExample" ] [ textual ]));
        Test.make ~name:"compile-forked (fresh universe + marshalling)"
          (Staged.stage (fun () ->
               Dynamic_compiler.compile_strings ~mode:Dynamic_compiler.Forked vm
                 ~names:[ "MarryExample" ] [ textual ]));
        Test.make ~name:"load-newinstance (decode + link + instantiate)"
          (Staged.stage (fun () ->
               let cf = Classfile.decode encoded in
               ignore cf;
               (* linking replaces the class; instantiate through reflection *)
               let mirror = Reflect.class_mirror vm "MarryExample" in
               ignore mirror));
      ]
  in
  print_ratio rows ~slow:"forked" ~fast:"direct"
    ~label:"forked-process overhead vs direct invocation"

(* ---------------------------------------------------------------------- *)
(* Figure 10: editor layers                                                 *)
(* ---------------------------------------------------------------------- *)

let fig10 () =
  let make_buffer () =
    let ed = Editor.Basic_editor.create () in
    ignore
      (Editor.Basic_editor.insert_text ed
         { Editor.Basic_editor.line = 0; col = 0 }
         (String.concat "\n" (List.init 100 (fun i -> Printf.sprintf "line %d of text" i))));
    ed
  in
  let buffer = make_buffer () in
  let window = Editor.Window_editor.create ~height:24 buffer in
  ignore
    (run_group ~name:"fig10"
       [
         Test.make ~name:"basic-layer insert+delete"
           (Staged.stage (fun () ->
                let p = { Editor.Basic_editor.line = 50; col = 3 } in
                ignore (Editor.Basic_editor.insert_text buffer p "zz");
                Editor.Basic_editor.delete_range buffer p
                  { Editor.Basic_editor.line = 50; col = 5 }));
         Test.make ~name:"window-layer render (24 visible lines)"
           (Staged.stage (fun () -> Editor.Window_editor.render_plain window));
         (let styled = Editor.Window_editor.create ~height:24 (make_buffer ()) in
          for line = 0 to 99 do
            Editor.Window_editor.set_face styled ~line ~start:0 ~len:4 Editor.Face.keyword
          done;
          Test.make ~name:"window-layer render with faces"
            (Staged.stage (fun () -> Editor.Window_editor.render_ansi styled)));
       ])

(* ---------------------------------------------------------------------- *)
(* Figure 11: editing form vs storage form for edits                        *)
(* ---------------------------------------------------------------------- *)

(* The design claim: the line-structured editing form makes local edits
   cheap, while editing the flat storage-form string costs O(program
   size).  The baseline performs the same midline insert+delete on the
   flat text with link-position shifting. *)
let fig11 () =
  let flat_insert_delete (text, links) =
    let pos = String.length text / 2 in
    let inserted =
      String.sub text 0 pos ^ "zz" ^ String.sub text pos (String.length text - pos)
    in
    let links' = List.map (fun (p, l) -> if p >= pos then (p + 2, l) else (p, l)) links in
    let deleted =
      String.sub inserted 0 pos ^ String.sub inserted (pos + 2) (String.length inserted - pos - 2)
    in
    let links'' = List.map (fun (p, l) -> if p >= pos + 2 then (p - 2, l) else (p, l)) links' in
    ignore deleted;
    ignore links''
  in
  let tests =
    List.concat_map
      (fun lines ->
        let form = Workloads.synthetic_editing_form ~lines ~width:40 in
        (* editor buffer holding the editing form *)
        let buffer =
          Editor.Basic_editor.of_flat
            (let flat = Editing_form.to_flat form in
             ( flat.Editing_form.text,
               List.map
                 (fun (p, link, label) -> (p, { Editor.Basic_editor.payload = link; label }))
                 flat.Editing_form.flat_links ))
        in
        let mid = { Editor.Basic_editor.line = lines / 2; col = 10 } in
        let mid_end = { Editor.Basic_editor.line = lines / 2; col = 12 } in
        (* flat baseline data *)
        let flat = Editing_form.to_flat form in
        let flat_data =
          ( flat.Editing_form.text,
            List.map (fun (p, l, _) -> (p, l)) flat.Editing_form.flat_links )
        in
        [
          Test.make
            ~name:(Printf.sprintf "editing-form midline edit (%4d lines)" lines)
            (Staged.stage (fun () ->
                 ignore (Editor.Basic_editor.insert_text buffer mid "zz");
                 Editor.Basic_editor.delete_range buffer mid mid_end));
          Test.make
            ~name:(Printf.sprintf "storage-form midline edit (%4d lines)" lines)
            (Staged.stage (fun () -> flat_insert_delete flat_data));
        ])
      [ 10; 100; 1000 ]
  in
  let rows = run_group ~name:"fig11" tests in
  print_ratio rows ~slow:"storage-form midline edit (1000"
    ~fast:"editing-form midline edit (1000"
    ~label:"storage-form cost vs editing form at 1000 lines"

(* ---------------------------------------------------------------------- *)
(* Figure 12: the scripted session round trip                               *)
(* ---------------------------------------------------------------------- *)

let fig12 () =
  let session_script () =
    let store = Store.create () in
    let session = Hyperui.Session.create store in
    let vm = Hyperui.Session.vm session in
    ignore (Jcompiler.compile_and_load vm [ Workloads.person_source ]);
    let p1 =
      Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm "a" ]
    in
    let p2 =
      Vm.new_instance vm ~cls:"Person" ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm "b" ]
    in
    Store.Session.set_root vm.Rt.session "a" p1;
    Store.Session.set_root vm.Rt.session "b" p2;
    let _id, ed = Hyperui.Session.new_editor ~class_name:"MarryExample" session in
    Editor.User_editor.type_text ed
      "public class MarryExample {\n  public static void main(String[] args) {\n    ";
    ignore
      (Editor.User_editor.insert_link ~check:false ed
         (Hyperlink.L_static_method
            { cls = "Person"; name = "marry"; desc = "(LPerson;LPerson;)V" }));
    Editor.User_editor.type_text ed "(";
    ignore (Editor.User_editor.insert_link ~check:false ed (Hyperlink.L_object (oid_of p1)));
    Editor.User_editor.type_text ed ", ";
    ignore (Editor.User_editor.insert_link ~check:false ed (Hyperlink.L_object (oid_of p2)));
    Editor.User_editor.type_text ed ");\n  }\n}\n";
    match Hyperui.Session.go session with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  ignore
    (run_group ~name:"fig12"
       [
         Test.make ~name:"session-script (boot+compose+link+compile+go)"
           (Staged.stage session_script);
       ])

(* ---------------------------------------------------------------------- *)
(* Section 7: the range of linking times                                    *)
(* ---------------------------------------------------------------------- *)

let concl_link_times () =
  let store, vm, persons = Workloads.vm_with_persons 2 in
  let p1 = List.nth persons 0 in
  ignore store;
  (* Three binding styles resolving "the person", coarsely comparable:
     - composition-time value link: the running program dereferences the
       registry once (textual form path), here measured as getLink+field;
     - location link: read the location's current content at run time;
     - textual name: look the entity up by name through reflection, the
       way a conventional program would. *)
  let hp = Workloads.marry_example vm p1 (List.nth persons 1) in
  Pstore.Store.Session.set_root vm.Rt.session "hp" (Pvalue.Ref hp);
  let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
  let slot = Rt.field_slot vm "Person" "spouse" in
  ignore
    (run_group ~name:"concl"
       [
         Test.make ~name:"link-times: hyper-link (getLink + getObject)"
           (Staged.stage (fun () ->
                let link =
                  Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1
                in
                Vm.call_virtual vm ~recv:link ~name:"getObject"
                  ~desc:"()Ljava.lang.Object;" []));
         Test.make ~name:"link-times: location link (field read)"
           (Staged.stage (fun () -> Pstore.Store.Session.field vm.Rt.session (oid_of p1) slot));
         Test.make ~name:"link-times: textual name (forName + getMethod + invoke)"
           (Staged.stage (fun () ->
                let mirror = Reflect.class_mirror vm "Person" in
                let m =
                  Vm.call_virtual vm ~recv:mirror ~name:"getMethod"
                    ~desc:"(Ljava.lang.String;)Ljava.lang.reflect.Method;"
                    [ Rt.jstring vm "getName" ]
                in
                Reflect.invoke vm ~method_mirror_value:m ~receiver:p1 ~args:[]));
       ])

(* ---------------------------------------------------------------------- *)
(* Section 7: schema evolution throughput                                   *)
(* ---------------------------------------------------------------------- *)

let concl_evolution () =
  Printf.printf "\n== concl evolution: evolve-recompile-reconstruct ==\n";
  List.iter
    (fun instances ->
      let _store, vm = Workloads.fresh_vm () in
      let _source, _objs = Workloads.evolution_workload vm ~instances in
      let v2 = "public class Evo { public long a; public int b; public int c; public int d; }" in
      let v1 = "public class Evo { public int a; public int b; public int c; }" in
      let t0 = Unix.gettimeofday () in
      let r = Evolution.evolve vm ~class_name:"Evo" ~new_source:v2 () in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      (* evolve back, to verify round-trip viability *)
      let r2 = Evolution.evolve vm ~class_name:"Evo" ~new_source:v1 () in
      Printf.printf "  n=%6d instances: evolve %8.2f ms (%6.0f inst/ms), round-trip ok=%b\n"
        instances dt
        (float_of_int instances /. Float.max dt 0.001)
        (r.Evolution.instances_updated = instances && r2.Evolution.instances_updated = instances))
    [ 100; 1000; 10000 ]

(* ---------------------------------------------------------------------- *)
(* Substrate ablations: store GC and stabilisation                          *)
(* ---------------------------------------------------------------------- *)

let substrate () =
  Printf.printf "\n== substrate: store gc + stabilisation scaling ==\n";
  List.iter
    (fun n ->
      let store, vm, _persons = Workloads.vm_with_persons n in
      ignore vm;
      let t0 = Unix.gettimeofday () in
      let stats = Store.gc store in
      let t1 = Unix.gettimeofday () in
      let image = Image.encode { Image.heap = Store.heap store; roots = Store.roots store; blobs = Hashtbl.create 1; quarantine = Quarantine.create () } in
      let t2 = Unix.gettimeofday () in
      let recovered = Image.decode image in
      let t3 = Unix.gettimeofday () in
      Printf.printf
        "  n=%6d persons: gc %7.2f ms (live %6d)   encode %7.2f ms (%7d bytes)   decode %7.2f ms (ok=%b)\n"
        n
        ((t1 -. t0) *. 1e3)
        stats.Gc.live
        ((t2 -. t1) *. 1e3)
        (String.length image)
        ((t3 -. t2) *. 1e3)
        (Heap.size recovered.Image.heap = Store.size store))
    [ 100; 1000; 10000 ]

(* Transaction rollback: snapshot + restore cost vs store size. *)
let substrate_rollback () =
  Printf.printf "\n== substrate: transaction rollback cost ==\n";
  List.iter
    (fun n ->
      let store, vm, _persons = Workloads.vm_with_persons n in
      ignore vm;
      let t0 = Unix.gettimeofday () in
      let result =
        Store.with_rollback store (fun () ->
            ignore (Store.Session.alloc_string vm.Rt.session "transient");
            failwith "abort")
      in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      Printf.printf "  n=%6d persons: abort+restore %7.2f ms (rolled back: %b)\n" n dt
        (match result with Error _ -> true | Ok _ -> false))
    [ 100; 1000; 10000 ]

(* ---------------------------------------------------------------------- *)
(* Substrate ablation: VM microbenchmarks                                   *)
(* ---------------------------------------------------------------------- *)

let vm_micro () =
  let _store, vm = Workloads.fresh_vm () in
  ignore
    (Jcompiler.compile_and_load vm
       [
         {|public class Micro {
  public static int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
  public static long loop(int n) {
    long acc = 0L;
    for (int i = 0; i < n; i++) { acc = acc + i; }
    return acc;
  }
  public static int calls(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + one(); }
    return acc;
  }
  static int one() { return 1; }
  public static Object alloc(int n) {
    Object last = null;
    for (int i = 0; i < n; i++) { last = new Object(); }
    return last;
  }
  public static String strings(int n) {
    StringBuffer sb = new StringBuffer();
    for (int i = 0; i < n; i++) { sb.append(i); }
    return sb.toString();
  }
}
|};
       ]);
  let call name desc args = Vm.call_static vm ~cls:"Micro" ~name ~desc args in
  let steps_before = vm.Rt.steps in
  ignore (call "fib" "(I)I" [ Pvalue.Int 20l ]);
  let fib_steps = vm.Rt.steps - steps_before in
  Printf.printf "\n== substrate: VM characterisation ==\n";
  Printf.printf "  fib(20) executes %d bytecode instructions\n" fib_steps;
  ignore
    (run_group ~name:"vm"
       [
         Test.make ~name:"fib(15) recursive calls"
           (Staged.stage (fun () -> call "fib" "(I)I" [ Pvalue.Int 15l ]));
         Test.make ~name:"loop 10k iterations (long acc)"
           (Staged.stage (fun () -> call "loop" "(I)J" [ Pvalue.Int 10000l ]));
         Test.make ~name:"10k static calls"
           (Staged.stage (fun () -> call "calls" "(I)I" [ Pvalue.Int 10000l ]));
         Test.make ~name:"1k object allocations"
           (Staged.stage (fun () -> call "alloc" "(I)Ljava.lang.Object;" [ Pvalue.Int 1000l ]));
         Test.make ~name:"100 StringBuffer appends"
           (Staged.stage (fun () -> call "strings" "(I)Ljava.lang.String;" [ Pvalue.Int 100l ]));
       ]);
  ignore
    (Jcompiler.compile_and_load vm
       [
         {|public class Exc {
  public static int caught(int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) {
      try { throw new RuntimeException("x"); }
      catch (RuntimeException e) { sum++; }
    }
    return sum;
  }
  public static int checked(int n) {
    int sum = 0;
    int z = 0;
    for (int i = 0; i < n; i++) {
      try { sum += 1 / z; } catch (ArithmeticException e) { sum++; }
    }
    return sum;
  }
}
|};
       ]);
  ignore
    (run_group ~name:"vm-exceptions"
       [
         Test.make ~name:"100 throw+catch round trips"
           (Staged.stage (fun () ->
                Vm.call_static vm ~cls:"Exc" ~name:"caught" ~desc:"(I)I" [ Pvalue.Int 100l ]));
         Test.make ~name:"100 caught runtime traps (div by zero)"
           (Staged.stage (fun () ->
                Vm.call_static vm ~cls:"Exc" ~name:"checked" ~desc:"(I)I" [ Pvalue.Int 100l ]));
       ]);
  (* instructions per second, coarse *)
  let t0 = Unix.gettimeofday () in
  let s0 = vm.Rt.steps in
  ignore (call "fib" "(I)I" [ Pvalue.Int 25l ]);
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "  interpreter speed: %.1f M instructions/s\n"
    (float_of_int (vm.Rt.steps - s0) /. dt /. 1e6)

(* ---------------------------------------------------------------------- *)

let () =
  Printf.printf "hyper-programming in Java — benchmark harness\n";
  Printf.printf "(shapes and ratios matter; absolute numbers are this machine's)\n";
  table1 ();
  figs_compose ();
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig11 ();
  fig12 ();
  concl_link_times ();
  concl_evolution ();
  substrate ();
  substrate_rollback ();
  vm_micro ();
  Printf.printf "\ndone.\n"
