(* The QA subsystem: exact codec round-trips, generator determinism,
   oracle verdicts on the healthy solver set, fault injection (a scratch
   two-label solver with a planted off-by-one must be caught and shrunk
   small), and byte-determinism of the fuzz loop. *)

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Case codec                                                          *)
(* ------------------------------------------------------------------ *)

let prop_case_codec_roundtrip =
  Helpers.qtest ~count:60 "case codec round-trip is exact"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Qa.Gen.case (Util.Rng.derive seed 0) in
      let s = Ppd.Case.to_string case in
      match Ppd.Case.of_string s with
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s\n%s" msg s
      | Ok case' ->
          String.equal s (Ppd.Case.to_string case')
          && String.equal (Ppd.Case.digest case) (Ppd.Case.digest case'))

let unit_codec_rejects_garbage () =
  List.iter
    (fun doc ->
      match Ppd.Case.of_string doc with
      | Ok _ -> Alcotest.failf "accepted malformed case: %S" doc
      | Error _ -> ())
    [
      "";
      "hardq-case v2\n";
      "hardq-case v1\ntuple \"x\"\n";
      "hardq-case v1\nrelation \"C\" \"item\"\ntuple \"a\"\nquery nonsense(((\n";
      "hardq-case v1\nrelation \"C\" \"item\"\ntuple \"a\"\n\
       prelation \"P\" \"sid\"\nsession \"s\" phi 0x1p-1 center 0 1\n\
       query Q() :- P(_; \"a\"; \"a\").\n";
    ]

(* ------------------------------------------------------------------ *)
(* Generator determinism                                               *)
(* ------------------------------------------------------------------ *)

let unit_gen_is_a_pure_function_of_seed () =
  let render s i = Ppd.Case.to_string (Qa.Gen.case (Util.Rng.derive s i)) in
  Alcotest.(check string) "same (seed, index), same case" (render 9 3) (render 9 3);
  (* Sub-streams are keyed, not sequential: deriving index 3 must not
     depend on indices 0..2 having been drawn. *)
  if String.equal (render 9 3) (render 9 4) then
    Alcotest.fail "adjacent indices produced identical cases";
  if String.equal (render 9 3) (render 10 3) then
    Alcotest.fail "different seeds produced identical cases"

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir f =
  let dir = Filename.temp_file "hardq_qa_corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun x -> Sys.remove (Filename.concat dir x))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let unit_corpus_dedup_by_digest () =
  with_tmp_dir @@ fun dir ->
  let case = Qa.Gen.case (Util.Rng.derive 3 0) in
  (match Qa.Corpus.add ~dir ~seed:3 ~index:0 case with
  | `Added _ -> ()
  | `Duplicate p -> Alcotest.failf "fresh case reported duplicate: %s" p);
  (* Same content under another (seed, index) address is still the same
     corpus entry. *)
  (match Qa.Corpus.add ~dir ~seed:99 ~index:7 case with
  | `Duplicate _ -> ()
  | `Added p -> Alcotest.failf "duplicate content re-added as %s" p);
  Alcotest.(check int) "one file" 1 (List.length (Qa.Corpus.files dir));
  match Qa.Corpus.load_all dir with
  | [ (_, Ok case') ] ->
      Alcotest.(check string)
        "load_all round-trips" (Ppd.Case.digest case) (Ppd.Case.digest case')
  | l -> Alcotest.failf "expected one parsed entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Oracle on healthy solvers                                           *)
(* ------------------------------------------------------------------ *)

let unit_oracle_accepts_healthy_solvers () =
  for i = 0 to 19 do
    let case = Qa.Gen.case (Util.Rng.derive 5 i) in
    match Qa.Oracle.check case with
    | Qa.Oracle.Fail { check; detail } ->
        Alcotest.failf "case (5,%d) failed %s: %s\nreplay:\n%s" i check detail
          (Ppd.Case.to_string case)
    | Qa.Oracle.Pass _ | Qa.Oracle.Skip _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Fault injection: a scratch two-label solver with an off-by-one      *)
(* ------------------------------------------------------------------ *)

(* A copy of Two_label.prob_edges with one planted bug: the "already
   tracked extremal position shifts under the new insertion" test reads
   [v >= j] instead of [v - 1 >= j] — the classic boundary slip between
   positions and their +1 encoding. *)
let buggy_two_label_dp model lab pairs =
  let m = Rim.Model.m model in
  let conj = Hardq.Conj.create lab model in
  let lefts = Hashtbl.create 8 and rights = Hashtbl.create 8 in
  let intern_role tbl node =
    let c = Hardq.Conj.intern conj node in
    match Hashtbl.find_opt tbl c with
    | Some k -> k
    | None ->
        let k = Hashtbl.length tbl in
        Hashtbl.add tbl c k;
        k
  in
  let edges =
    List.map (fun (l, r) -> (intern_role lefts l, intern_role rights r)) pairs
  in
  let a = Hashtbl.length lefts and b = Hashtbl.length rights in
  let left_conj = Array.make a 0 and right_conj = Array.make b 0 in
  Hashtbl.iter (fun c k -> left_conj.(k) <- c) lefts;
  Hashtbl.iter (fun c k -> right_conj.(k) <- c) rights;
  let satisfies st =
    List.exists
      (fun (lk, rk) ->
        let lv = st.(lk) and rv = st.(a + rk) in
        lv > 0 && rv > 0 && lv < rv)
      edges
  in
  let table = ref (Hashtbl.create 64) in
  Hashtbl.add !table (Array.make (a + b) 0) 1.;
  for i = 0 to m - 1 do
    let next = Hashtbl.create (Hashtbl.length !table * 2) in
    Hashtbl.iter
      (fun st q ->
        for j = 0 to i do
          let st' = Array.copy st in
          for k = 0 to a - 1 do
            let v = st.(k) in
            let shifted = if v > 0 && v >= j (* bug: v - 1 >= j *) then v + 1 else v in
            if Hardq.Conj.matches conj left_conj.(k) i then
              st'.(k) <- (if v = 0 then j + 1 else min shifted (j + 1))
            else st'.(k) <- shifted
          done;
          for k = 0 to b - 1 do
            let v = st.(a + k) in
            let shifted = if v > 0 && v >= j (* bug: v - 1 >= j *) then v + 1 else v in
            if Hardq.Conj.matches conj right_conj.(k) i then
              st'.(a + k) <- (if v = 0 then j + 1 else max shifted (j + 1))
            else st'.(a + k) <- shifted
          done;
          if not (satisfies st') then begin
            let p = q *. Rim.Model.pi model i j in
            match Hashtbl.find_opt next st' with
            | Some q0 -> Hashtbl.replace next st' (q0 +. p)
            | None -> Hashtbl.add next st' p
          end
        done)
      !table;
    table := next
  done;
  let violating = Hashtbl.fold (fun _ q acc -> acc +. q) !table 0. in
  max 0. (1. -. violating)

(* Total over every union kind, so the differential matrix stays
   applicable: the planted bug only speaks two-label. *)
let buggy_two_label model lab u =
  if Prefs.Pattern_union.kind u = Prefs.Pattern_union.Two_label then
    buggy_two_label_dp model lab
      (List.map
         (fun g -> (Prefs.Pattern.node g 0, Prefs.Pattern.node g 1))
         (Prefs.Pattern_union.patterns u))
  else Hardq.Solver.exact_prob `Auto model lab u

let unit_injected_off_by_one_caught_and_shrunk () =
  let extra = [ ("buggy_two_label", buggy_two_label) ] in
  let params = { Qa.Gen.default with Qa.Gen.max_items = 8 } in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec find i =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "planted bug not found within 30s"
    else
      let case = Qa.Gen.case ~params (Util.Rng.derive 11 i) in
      if Qa.Oracle.fails ~extra case then (i, case) else find (i + 1)
  in
  let i, case = find 0 in
  let small =
    Qa.Shrink.minimize ~still_failing:(Qa.Oracle.fails ~extra) case
  in
  let m = Ppd.Database.m small.Ppd.Case.db in
  if m > 6 then
    Alcotest.failf "case (11,%d) only shrank to m=%d:\n%s" i m
      (Ppd.Case.to_string small);
  Alcotest.(check bool) "shrunk case still fails" true
    (Qa.Oracle.fails ~extra small);
  (* The minimized case must be healthy without the planted bug — the
     shrinker may not have morphed it into a genuine failure. *)
  match Qa.Oracle.check ~approx:false small with
  | Qa.Oracle.Fail { check; detail } ->
      Alcotest.failf "shrunk case fails healthy solvers too (%s: %s)" check
        detail
  | Qa.Oracle.Pass _ | Qa.Oracle.Skip _ -> ()

(* ------------------------------------------------------------------ *)
(* Fuzz loop                                                           *)
(* ------------------------------------------------------------------ *)

let fuzz_log cfg =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let o = Qa.Fuzz.run ~log:fmt cfg in
  Format.pp_print_flush fmt ();
  (o, Buffer.contents buf)

let unit_fuzz_log_is_deterministic () =
  with_tmp_dir @@ fun dir1 ->
  with_tmp_dir @@ fun dir2 ->
  let cfg dir =
    {
      Qa.Fuzz.default with
      Qa.Fuzz.seed = 42;
      seconds = 0.;
      iters = 25;
      corpus_dir = Some dir;
    }
  in
  let o1, log1 = fuzz_log (cfg dir1) in
  let o2, log2 = fuzz_log (cfg dir2) in
  Alcotest.(check string) "logs byte-identical" log1 log2;
  Alcotest.(check int) "same case count" o1.Qa.Fuzz.cases o2.Qa.Fuzz.cases;
  Alcotest.(check (list string))
    "same corpus file names" (Qa.Corpus.files dir1) (Qa.Corpus.files dir2)

let unit_fuzz_catches_persists_and_replay_vindicates () =
  with_tmp_dir @@ fun dir ->
  let extra = [ ("buggy_two_label", buggy_two_label) ] in
  let cfg =
    {
      Qa.Fuzz.default with
      Qa.Fuzz.seed = 11;
      seconds = 0.;
      iters = 40;
      corpus_dir = Some dir;
      extra;
    }
  in
  let o, log = fuzz_log cfg in
  Alcotest.(check bool) "planted bug found" true (o.Qa.Fuzz.failures > 0);
  Alcotest.(check bool) "failure persisted" true (o.Qa.Fuzz.added <> []);
  (* The log names the exact replay command for the persisted case. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "log carries a replay command" true
    (contains log "hardq_qa.exe -- replay");
  (* Replaying with the planted solver still fails... *)
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let bad = Qa.Fuzz.replay ~log:null ~extra dir in
  Alcotest.(check bool) "replay with planted bug fails" true
    (bad.Qa.Fuzz.failures > 0);
  (* ...and the same corpus is clean for the real solvers, i.e. the
     shrinker preserved "fails only because of the planted bug". *)
  let good = Qa.Fuzz.replay ~log:null dir in
  Alcotest.(check int) "replay clean on healthy solvers" 0
    (good.Qa.Fuzz.failures)

let suites =
  [
    ( "qa.codec",
      [
        prop_case_codec_roundtrip;
        tc "malformed documents rejected" `Quick unit_codec_rejects_garbage;
      ] );
    ( "qa.gen",
      [ tc "pure function of (seed, index)" `Quick unit_gen_is_a_pure_function_of_seed ] );
    ( "qa.corpus",
      [ tc "digest-deduplicated, seed-addressed" `Quick unit_corpus_dedup_by_digest ] );
    ( "qa.oracle",
      [ tc "healthy solvers pass 20 random cases" `Quick unit_oracle_accepts_healthy_solvers ] );
    ( "qa.shrink",
      [
        tc "planted off-by-one caught, shrunk to <= 6 items" `Slow
          unit_injected_off_by_one_caught_and_shrunk;
      ] );
    ( "qa.fuzz",
      [
        tc "same seed, byte-identical log and corpus" `Quick
          unit_fuzz_log_is_deterministic;
        tc "finds, persists and replays the planted bug" `Slow
          unit_fuzz_catches_persists_and_replay_vindicates;
      ] );
  ]
