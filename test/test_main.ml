(* Test runner: aggregates every suite. *)

let () =
  Alcotest.run "hyperjava"
    [
      ("codec", Test_codec.suite @ Test_codec.props);
      ("pstore", Test_pstore.suite @ Test_pstore.props @ Test_pstore.layout);
      ("store-extra", Test_store_extra.suite @ Test_store_extra.props);
      ("lexer", Test_lexer.suite @ Test_lexer.props);
      ("parser", Test_parser.suite @ Test_parser.props);
      ("semantics", Test_semantics.suite @ Test_semantics.props);
      ("typecheck", Test_typecheck.suite @ Test_typecheck.props);
      ("classfile", Test_classfile.suite @ Test_classfile.props);
      ("stdlib", Test_stdlib.suite @ Test_stdlib.props);
      ("reflect", Test_reflect.suite @ Test_reflect.props);
      ("linker", Test_linker.suite @ Test_linker.props);
      ("hyperlink", Test_hyperlink.suite @ Test_hyperlink.props);
      ("forms", Test_forms.suite @ Test_forms.props);
      ("registry", Test_registry.suite @ Test_registry.props);
      ("textual", Test_textual.suite @ Test_textual.props);
      ("dynamic-compiler", Test_dynamic_compiler.suite @ Test_dynamic_compiler.props);
      ("evolution", Test_evolution.suite @ Test_evolution.props);
      ("editor", Test_editor.suite @ Test_editor.props);
      ("browser", Test_browser.suite @ Test_browser.props);
      ("session", Test_session.suite @ Test_session.props);
      ("html", Test_html.suite @ Test_html.props);
      ("sourcemap", Test_sourcemap.suite @ Test_sourcemap.props);
      ("hyper-source", Test_hyper_source.suite @ Test_hyper_source.props);
      ("programs", Test_programs.suite @ Test_programs.props);
      ("fuzz", Test_fuzz_eval.suite @ Test_fuzz_eval.props);
      ("shell", Test_shell.suite @ Test_shell.props);
      ("transaction", Test_transaction.suite @ Test_transaction.props);
    ]
