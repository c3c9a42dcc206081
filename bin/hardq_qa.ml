(* hardq-qa — differential testing toolbox: deterministic fuzzing,
   corpus replay, case generation, and registry export. Exit 0 when all
   checks pass, 1 when any case fails, 2 on usage errors. *)

open Cmdliner

let seed_arg =
  let doc = "Root seed; case $(i,i) is a pure function of (seed, i)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let max_items_arg =
  let doc = "Largest item domain the generator draws." in
  Arg.(value & opt int Qa.Gen.default.Qa.Gen.max_items
       & info [ "max-items" ] ~docv:"M" ~doc)

let max_sessions_arg =
  let doc = "Largest session count the generator draws." in
  Arg.(value & opt int Qa.Gen.default.Qa.Gen.max_sessions
       & info [ "max-sessions" ] ~docv:"N" ~doc)

let params max_items max_sessions =
  { Qa.Gen.default with Qa.Gen.max_items; max_sessions }

(* fuzz *)

let seconds_arg =
  let doc = "Wall-clock time box in seconds (0 = no limit)." in
  Arg.(value & opt float 30. & info [ "seconds" ] ~docv:"S" ~doc)

let iters_arg =
  let doc = "Maximum cases to try (0 = no limit)." in
  Arg.(value & opt int 0 & info [ "iters" ] ~docv:"N" ~doc)

let corpus_arg =
  let doc =
    "Corpus directory where shrunk failures are appended; $(b,none) \
     disables persistence."
  in
  Arg.(value & opt string Qa.Corpus.default_dir
       & info [ "corpus" ] ~docv:"DIR" ~doc)

let fuzz seed seconds iters corpus max_items max_sessions =
  let corpus_dir = if corpus = "none" then None else Some corpus in
  let cfg =
    {
      Qa.Fuzz.default with
      Qa.Fuzz.seed;
      seconds;
      iters;
      corpus_dir;
      params = params max_items max_sessions;
    }
  in
  let o = Qa.Fuzz.run cfg in
  if o.Qa.Fuzz.failures = 0 then 0 else 1

let fuzz_cmd =
  let doc = "generate random cases and differentially check every solver" in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ seed_arg $ seconds_arg $ iters_arg $ corpus_arg
      $ max_items_arg $ max_sessions_arg)

(* replay *)

let path_arg =
  let doc = "A $(b,.case) file, or a directory of them." in
  Arg.(value & pos 0 string Qa.Corpus.default_dir & info [] ~docv:"PATH" ~doc)

(* A directory is a corpus: it must also route a passing case to every
   plan node kind. *)
let replay path =
  let require_kinds =
    if Sys.file_exists path && Sys.is_directory path then Qa.Fuzz.required_kinds
    else []
  in
  let o = Qa.Fuzz.replay ~require_kinds path in
  if o.Qa.Fuzz.failures = 0 then 0 else 1

let replay_cmd =
  let doc =
    "re-check recorded cases with the full differential oracle (solver \
     matrix, engine lattice, SLO and language rows); print each answer \
     bit-exactly. Over a directory, also fail unless the corpus routes a \
     passing case to every plan node kind"
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay $ path_arg)

(* gen *)

let index_arg =
  let doc = "Case index within the seed's stream." in
  Arg.(value & opt int 0 & info [ "index"; "i" ] ~docv:"I" ~doc)

let out_arg =
  let doc = "Output file ($(b,-) = stdout)." in
  Arg.(value & opt string "-" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let write_case out case =
  if out = "-" then print_string (Ppd.Case.to_string case)
  else Ppd.Case.save out case

let lang_arg =
  let doc =
    "Emit the case's query as query-language text (one line) instead of \
     the full case file — the corpus seam for external parser fuzzers."
  in
  Arg.(value & flag & info [ "lang" ] ~doc)

let gen seed index out max_items max_sessions lang =
  let case =
    Qa.Gen.case
      ~params:(params max_items max_sessions)
      (Util.Rng.derive seed index)
  in
  if lang then begin
    let text =
      Lang.Ast.to_string (Lang.Ast.of_query case.Ppd.Case.query) ^ "\n"
    in
    if out = "-" then print_string text
    else Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc text)
  end
  else write_case out case;
  0

let gen_cmd =
  let doc = "print the case at (seed, index) of the generator stream" in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(
      const gen $ seed_arg $ index_arg $ out_arg $ max_items_arg
      $ max_sessions_arg $ lang_arg)

(* export *)

let dataset_arg =
  let doc = "Dataset family: $(b,polls), $(b,movielens) or $(b,crowdrank)." in
  Arg.(value & opt string "polls" & info [ "dataset" ] ~docv:"NAME" ~doc)

let size_arg =
  let doc = "Dataset scale (generator default when omitted)." in
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc)

let sessions_arg =
  let doc = "Session count (generator default when omitted)." in
  Arg.(value & opt (some int) None & info [ "sessions" ] ~docv:"N" ~doc)

let ds_seed_arg =
  let doc = "Dataset generator seed." in
  Arg.(value & opt (some int) None & info [ "dataset-seed" ] ~docv:"SEED" ~doc)

let query_arg =
  let doc =
    "Query text (parser syntax); the dataset's showcase query when omitted."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let fail fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "hardq-qa: %s\n" msg; 2) fmt

let export dataset size sessions ds_seed query out =
  let query_text =
    match query with
    | Some q -> Some q
    | None -> Server.Registry.showcase_query dataset
  in
  match query_text with
  | None -> fail "no query given and %S has no showcase query" dataset
  | Some text -> (
      match Ppd.Parser.parse_result text with
      | Error msg -> fail "query: %s" msg
      | Ok q -> (
          let spec =
            {
              Server.Protocol.ds_name = dataset;
              ds_size = size;
              ds_sessions = sessions;
              ds_seed = ds_seed;
            }
          in
          match Server.Registry.find (Server.Registry.create ()) spec with
          | Error e -> fail "%s" e.Server.Protocol.message
          | Ok db ->
              write_case out (Ppd.Case.make ~db ~query:q ());
              0))

let export_cmd =
  let doc =
    "write a registry dataset plus query as a case file, so a served \
     answer can be replayed offline"
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const export $ dataset_arg $ size_arg $ sessions_arg $ ds_seed_arg
      $ query_arg $ out_arg)

let cmd =
  let doc = "differential testing and deterministic replay for hardq" in
  Cmd.group
    (Cmd.info "hardq-qa" ~doc)
    [
      fuzz_cmd;
      replay_cmd;
      gen_cmd;
      export_cmd;
    ]

let () = exit (Cmd.eval' cmd)
