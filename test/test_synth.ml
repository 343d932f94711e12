(* CEGIS wrapper synthesis (Synth) and its model-checking oracle
   (Mcheck.Oracle): the synthesizer rediscovers the paper's refined W
   for every synthesizable registry entry, the transcript is invariant
   under the pool width, the oracle's verdicts (and counterexample
   traces) are invariant under jobs/shards/memory budget. *)

module W = Graybox.Wrapper
module O = Mcheck.Oracle

(* resolving through Tme.Scenarios, the registration site, links it in *)
let ra = Option.get (Tme.Scenarios.find_protocol "ra")

(* -- synthesis ------------------------------------------------------ *)

let test_synthesizes_w_refined () =
  let r = Synth.synthesize ra (Synth.config ()) in
  (match r.Synth.synthesized with
   | None -> Alcotest.fail "synthesis found nothing for ra"
   | Some w ->
     Alcotest.(check bool) "synthesized term is the paper's refined W" true
       (W.equal w W.w_refined));
  Alcotest.(check bool) "pruning engaged" true (r.Synth.pruned > 0);
  Alcotest.(check bool) "oracle consulted" true (r.Synth.checked > 0);
  Alcotest.(check int) "every tried candidate is in the transcript"
    (r.Synth.checked + r.Synth.pruned)
    (List.length r.Synth.attempts);
  (* the transcript is index-sorted and each index appears once *)
  let idxs = List.map (fun a -> a.Synth.index) r.Synth.attempts in
  Alcotest.(check bool) "transcript sorted by enumeration index" true
    (List.sort_uniq compare idxs = idxs)

let test_matches_registered_term () =
  (* ra-synth's registered wrapper_term is exactly what synthesis
     produces for ra: the registry entry is the synthesis result made
     a first-class protocol *)
  let entry = Option.get (Graybox.Registry.find "ra-synth") in
  let r = Synth.synthesize ra (Synth.config ()) in
  match (entry.Graybox.Registry.wrapper_term, r.Synth.synthesized) with
  | Some registered, Some synthesized ->
    Alcotest.(check bool) "ra-synth registers the synthesized term" true
      (W.equal registered synthesized)
  | _ -> Alcotest.fail "ra-synth term or synthesis result missing"

let test_transcript_jobs_invariant () =
  (* the whole result — synthesized term, transcript, counts — is
     byte-identical for every pool width *)
  let run jobs = Synth.synthesize ra (Synth.config ~jobs ()) in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d == jobs=1" jobs)
        true
        (run jobs = reference))
    [ 2; 8 ]

let test_budget_exhaustion_is_honest () =
  (* a tiny check budget must return None with a full transcript, not
     a bogus term *)
  let r = Synth.synthesize ra (Synth.config ~max_checks:3 ()) in
  Alcotest.(check bool) "no term within 3 checks" true
    (r.Synth.synthesized = None);
  Alcotest.(check int) "stopped at the budget" 3 r.Synth.checked

(* -- oracle determinism --------------------------------------------- *)

let scrub_stats s = { s with Mcheck.peak_mem_words = 0; spill_bytes = 0 }

let scrub = function
  | O.Safe stats -> O.Safe (List.map scrub_stats stats)
  | O.Cex cex -> O.Cex { cex with O.stats = List.map scrub_stats cex.O.stats }

let spill_dir = Filename.temp_file "graybox-synth-oracle" ".d"

let () =
  (* temp_file created a file; we want a directory for spill shards *)
  Sys.remove spill_dir;
  Unix.mkdir spill_dir 0o700

let check_oracle_differential name candidate ~n () =
  let run ~jobs ~shards ~mem_budget =
    O.check ra ~n ~jobs ~shards ~mem_budget ~spill_dir candidate
  in
  let reference = run ~jobs:1 ~shards:1 ~mem_budget:max_int in
  (* fixed budget: full equality, including memory stats *)
  List.iter
    (fun (jobs, shards) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d shards=%d == serial" name jobs shards)
        true
        (run ~jobs ~shards ~mem_budget:max_int = reference))
    [ (2, 1); (8, 1); (2, 4); (8, 3) ];
  (* tiny budget forces the spill path in the underlying explorations;
     the verdict — including any counterexample trace — must be
     unchanged modulo the two memory figures *)
  let spilled = run ~jobs:2 ~shards:4 ~mem_budget:64 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill-forced == in-RAM (modulo memory stats)" name)
    true
    (scrub spilled = scrub reference);
  let stats_of = function O.Safe s -> s | O.Cex c -> c.O.stats in
  Alcotest.(check bool)
    (Printf.sprintf "%s: spill engaged" name)
    true
    (List.exists (fun s -> s.Mcheck.spill_bytes > 0) (stats_of spilled));
  Alcotest.(check bool)
    (Printf.sprintf "%s: in-RAM run never spills" name)
    true
    (List.for_all (fun s -> s.Mcheck.spill_bytes = 0) (stats_of reference))

let oracle_safe =
  (* w_refined certifies: the Safe verdict's per-run stats must be
     jobs/shards/budget-invariant *)
  check_oracle_differential "safe(w_refined)" W.w_refined ~n:2

let oracle_cex =
  (* reply-to-all forges grants and fails safety: the counterexample —
     seed label, action trace, path, blamed firings — must be
     byte-identical across configurations *)
  check_oracle_differential "cex(reply-to-all)"
    { W.guard = W.Mode W.Is_hungry;
      target = W.Any_peer;
      send = W.Send_reply }
    ~n:2

let test_oracle_verdicts () =
  (match O.check ra ~n:2 W.w_refined with
   | O.Safe _ -> ()
   | O.Cex cex ->
     Alcotest.failf "w_refined refuted: %s" (O.obligation_label cex.O.obligation));
  (match
     O.check ra ~n:2
       { W.guard = W.Mode W.Is_hungry;
         target = W.Any_peer;
         send = W.Send_reply }
   with
   | O.Cex { O.obligation = O.Safety; fired; _ } ->
     Alcotest.(check bool) "safety cex blames the candidate's firings" true
       (fired <> [])
   | O.Cex { O.obligation = o; _ } ->
     Alcotest.failf "expected a safety cex, got %s" (O.obligation_label o)
   | O.Safe _ -> Alcotest.fail "reply-to-all must not certify");
  match
    O.check ra ~n:2
      { W.guard = W.Mode W.Is_eating;
        target = W.Any_peer;
        send = W.Send_request }
  with
  | O.Cex { O.obligation = O.Recovery _ | O.Progress; _ } -> ()
  | O.Cex { O.obligation = O.Safety; _ } ->
    Alcotest.fail "a never-firing-when-wedged candidate cannot break safety"
  | O.Safe _ -> Alcotest.fail "an eating-gated wrapper cannot unwedge"

let () =
  Alcotest.run "synth"
    [ ( "cegis",
        [ Alcotest.test_case "synthesizes w_refined" `Slow
            test_synthesizes_w_refined;
          Alcotest.test_case "matches the registered ra-synth term" `Slow
            test_matches_registered_term;
          Alcotest.test_case "transcript jobs-invariant" `Slow
            test_transcript_jobs_invariant;
          Alcotest.test_case "budget exhaustion is honest" `Quick
            test_budget_exhaustion_is_honest ] );
      ( "oracle",
        [ Alcotest.test_case "verdicts" `Quick test_oracle_verdicts;
          Alcotest.test_case "safe verdict differential" `Slow oracle_safe;
          Alcotest.test_case "cex differential" `Slow oracle_cex ] ) ]
