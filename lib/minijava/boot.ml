(* VM bootstrap.

   A fresh store is booted by compiling the runtime library from source
   with the system's own compiler and persisting the resulting class files
   in the store: one blob per class, and one per unit text that those
   classes name by key (see Linker).  A store that already contains classes
   is reopened by relinking the persisted class files — no recompilation,
   the paper's persistent-classes property. *)

let boot_fresh store =
  let vm = Rt.create store in
  Natives.install vm;
  ignore (Jcompiler.compile_and_load vm Stdlib_src.all_units);
  vm

let reopen store =
  let vm = Rt.create store in
  Natives.install vm;
  ignore (Linker.relink_persisted vm);
  vm

(* Boot or reopen, depending on whether the store already holds classes. *)
let vm_for store =
  let open Pstore in
  match Store.Session.blob (Store.default_session store) Linker.order_blob with
  | Some _ -> reopen store
  | None -> boot_fresh store
