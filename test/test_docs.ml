(* Doc-audit gate: README.md, EXPERIMENTS.md and DESIGN.md are
   cross-checked against the live protocol registry, so a rename, a
   re-roling, or a changed recovery expectation fails CI instead of
   silently drifting the prose.  The dune stanza declares the three
   documents as deps; dune stages them one directory up in the build
   tree, which is where the test's cwd sees them. *)

module R = Graybox.Registry

(* referencing Scenarios forces tme's registration side effect *)
let _force_registration = Tme.Scenarios.run

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let readme = lazy (read_file "../README.md")
let experiments = lazy (read_file "../EXPERIMENTS.md")
let design = lazy (read_file "../DESIGN.md")
let lines s = String.split_on_char '\n' s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_mentions doc text needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" doc needle)
        true
        (contains text needle))
    needles

(* "| `ra` | reference | ... |" -> ["ra"; "reference"; ...] *)
let cells line =
  let untick c =
    let n = String.length c in
    if n >= 2 && c.[0] = '`' && c.[n - 1] = '`' then String.sub c 1 (n - 2)
    else c
  in
  String.split_on_char '|' line
  |> List.map String.trim
  |> List.filter (fun c -> c <> "")
  |> List.map untick

(* rows of the markdown table whose header line is [header]: the
   contiguous run of "| `..." lines after the |---| separator *)
let table_rows ~doc ~header text =
  let rec find = function
    | [] -> Alcotest.fail (Printf.sprintf "%s: table %S not found" doc header)
    | l :: rest when String.trim l = header -> rest
    | _ :: rest -> find rest
  in
  let rest = find (lines text) in
  let rest =
    match rest with
    | sep :: r when String.length sep >= 2 && sep.[0] = '|' && sep.[1] = '-' ->
      r
    | r -> r
  in
  let is_row l = String.length l >= 3 && l.[0] = '|' && l.[1] = ' ' && l.[2] = '`' in
  let rec take acc = function
    | l :: rest when is_row l -> take (cells l :: acc) rest
    | _ -> List.rev acc
  in
  take [] rest

(* ------------------------------------------------------------------ *)
(* README: the protocols table is the registry, column for column      *)

let test_readme_protocol_table () =
  let rows =
    table_rows ~doc:"README.md"
      ~header:
        "| name | role | expect | partition | during | por | synth | what \
         it is |"
      (Lazy.force readme)
  in
  let entries = R.all () in
  Alcotest.(check int)
    "one row per registry entry"
    (List.length entries) (List.length rows);
  List.iter2
    (fun (e : R.entry) row ->
      match row with
      | name :: role :: expect :: partition :: during :: por :: synth :: _ ->
        Alcotest.(check string) "name, in registration order" e.R.name name;
        Alcotest.(check string)
          (e.R.name ^ ": role column")
          (R.role_label e.R.role) role;
        Alcotest.(check string)
          (e.R.name ^ ": expect column")
          (R.expectation_label e.R.expectation) expect;
        Alcotest.(check string)
          (e.R.name ^ ": partition column")
          (R.partition_expectation_label e.R.partition_expectation)
          partition;
        Alcotest.(check string)
          (e.R.name ^ ": during column")
          (R.during_partition_label e.R.during_partition)
          during;
        Alcotest.(check string)
          (e.R.name ^ ": por column")
          (if e.R.por_safe then "yes" else "no")
          por;
        Alcotest.(check string)
          (e.R.name ^ ": synth column")
          (if e.R.synthesizable then "yes" else "no")
          synth
      | _ -> Alcotest.fail (e.R.name ^ ": row has too few columns"))
    entries rows

(* every fault_spec constructor has a row in the README fault-model
   table.  The list below is gated for completeness by test_chaos's
   exhaustive spec_tag match: a new constructor breaks that compile,
   whose fix adds a tag there and (via this test) a doc row here. *)
let fault_spec_names =
  [ "Drop_requests"; "Drop_requests_window"; "Drop_any"; "Duplicate";
    "Corrupt_messages"; "Reorder"; "Flush"; "Partition"; "Corrupt_state";
    "Reset_state"; "Crash"; "Split"; "Delay" ]

let test_readme_fault_model_table () =
  let rows =
    table_rows ~doc:"README.md"
      ~header:"| spec | label | window | what it does |"
      (Lazy.force readme)
  in
  Alcotest.(check (list string))
    "one row per fault_spec constructor, declaration order"
    fault_spec_names
    (List.map
       (function
         | name :: _ -> name
         | [] -> Alcotest.fail "empty fault-model row")
       rows);
  (* the isolation-vs-group-partition distinction must stay documented *)
  check_mentions "README.md" (Lazy.force readme)
    [ "isolation"; "split-lossy"; "split-buf"; "--partitions" ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the PARTITION section exists and names the sweep    *)

let test_experiments_partition_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Partitions, heal, and delay (PARTITION, `BENCH_partition.json`)";
       "lossy"; "buffered"; "--partitions" ]
     @ R.default_sweep ()
     @ List.map R.partition_expectation_label
         [ R.Recovers_after_heal; R.Deadlocks ]
     (* the during-split story: every non-wedge entry (the ones with
        something to prove or disprove while the partition is up) must
        be named, and the gate vocabulary must be present *)
     @ List.filter_map
         (fun (e : R.entry) ->
           if e.R.during_partition <> R.Wedge then Some e.R.name else None)
         (R.all ())
     @ [ "(PARTITION-SPEC)"; "regime epoch"; "epoch-safe";
         R.during_partition_label R.Weak_me1;
         R.during_partition_label R.Unsafe ])

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the LOAD section exists, names the schema, the      *)
(* methodology caveat, and every reference protocol it sweeps          *)

let test_experiments_load_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Open-loop load (LOAD, `BENCH_load.json`)";
       "graybox-bench-load/1"; "coordinated omission"; "open-loop";
       "p50/p99/p999"; "test/golden_schedules" ]
     @ List.map
         (fun (e : R.entry) -> e.R.name)
         (R.all ~role:R.Reference ()))

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the MCHECK section names the out-of-core and POR    *)
(* machinery, its schema, and every por-safe protocol                  *)

let test_experiments_mcheck_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "graybox-bench-mcheck/2"; "--mem-budget"; "--spill-dir"; "--shards";
       "--por"; "--jobs"; "out-of-core"; "partial-order reduction";
       "quiet receiver"; "peak_mem_words"; "spill_bytes"; "por_safe" ]
     @ R.por_safe_names ())

(* ------------------------------------------------------------------ *)
(* DESIGN.md: the inventory covers the partition fault model           *)

let test_design_inventory () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "`Split`"; "`Delay`"; "`Heal`"; "partition_expectation";
      "`Lossy`/`Buffered`"; "BENCH_partition.json"; "delivery-ready staging" ]

let test_design_move_indexes () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "move indexes"; "Fenwick"; "rank/select"; "bit-identical";
      "test/golden_schedules"; "dense_threshold"; "Tme.Load" ];
  (* the README must tell the same scale story *)
  check_mentions "README.md" (Lazy.force readme)
    [ "BENCH_load.json"; "p50/p99/p999"; "test/golden_schedules";
      "coordinated omission" ]

(* every analysis is one fold, run live or over a recorded trace, and
   every wrapper term runs under one harness constructor *)
let test_one_analysis_path () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "**One analysis path.**"; "fold of the same observers";
      "`test/offline`"; "`Harness.On { term; delta }`" ];
  check_mentions "README.md" (Lazy.force readme)
    [ "fold of the same observers"; "`Harness.On { term; delta }`" ];
  check_mentions "EXPERIMENTS.md" (Lazy.force experiments)
    [ "## Analysis as a fold"; "fold of the same observers";
      "`test/offline`" ]

let test_design_regime_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "## 8. Regime epochs and weakened specs"; "`Regime.of_plan`";
      "cross-epoch obligation"; "`during_partition`"; "golden-tested" ];
  (* the README must surface the during column and its gate reading *)
  check_mentions "README.md" (Lazy.force readme)
    [ "during"; R.during_partition_label R.Weak_me1;
      R.during_partition_label R.Wedge; R.during_partition_label R.Unsafe ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md: the SYNTH section exists, names the schema, the     *)
(* synthesized term, and every synthesis target                        *)

let test_experiments_synth_section () =
  let text = Lazy.force experiments in
  check_mentions "EXPERIMENTS.md" text
    ([ "## Wrapper synthesis (SYNTH, `BENCH_synth.json`)";
       "graybox-bench-synth/1"; "graybox-synth/1"; "CEGIS"; "ra-synth";
       Graybox.Wrapper.to_string Graybox.Wrapper.w_refined ]
     @ R.synthesizable_names ())

let test_design_synth_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "## 9. Guard DSL and CEGIS wrapper synthesis"; "`Mcheck.Oracle`";
      "Timer_zero"; "pid-symmetric"; "blame"; "`ra-synth`";
      "graybox-synth/1"; "BENCH_synth.json" ];
  (* the README must surface the synthesis entry points *)
  check_mentions "README.md" (Lazy.force readme)
    [ "graybox-cli synth"; "BENCH_synth.json"; "ra-synth";
      R.role_label R.Synthesized ]

let test_design_checker_section () =
  check_mentions "DESIGN.md" (Lazy.force design)
    [ "sharded"; "Stdext.Blockfile"; "--mem-budget"; "fingerprint";
      "(tag, seq)"; "quiet receiver"; "por_safe"; "Pool.shard_of" ];
  (* the README must surface the out-of-core and POR knobs *)
  check_mentions "README.md" (Lazy.force readme)
    [ "--mem-budget"; "--por"; "--shards"; "BENCH_mcheck.json" ]

let () =
  Alcotest.run "docs"
    [ ( "readme",
        [ Alcotest.test_case "protocols table mirrors the registry" `Quick
            test_readme_protocol_table;
          Alcotest.test_case "fault-model table covers every spec" `Quick
            test_readme_fault_model_table ] );
      ( "experiments",
        [ Alcotest.test_case "partition section present and named" `Quick
            test_experiments_partition_section;
          Alcotest.test_case "load section present and named" `Quick
            test_experiments_load_section;
          Alcotest.test_case "mcheck section present and named" `Quick
            test_experiments_mcheck_section;
          Alcotest.test_case "synth section present and named" `Quick
            test_experiments_synth_section ] );
      ( "design",
        [ Alcotest.test_case "inventory covers the partition model" `Quick
            test_design_inventory;
          Alcotest.test_case "one analysis path documented" `Quick
            test_one_analysis_path;
          Alcotest.test_case "move-index architecture documented" `Quick
            test_design_move_indexes;
          Alcotest.test_case "regime-epoch architecture documented" `Quick
            test_design_regime_section;
          Alcotest.test_case "checker architecture documented" `Quick
            test_design_checker_section;
          Alcotest.test_case "synthesis architecture documented" `Quick
            test_design_synth_section ] ) ]
