(* Regime epochs: plan-derived topology segmentation, equal
   epoch-indexed spec reports with and without a recorded trace across
   the registry, and the during-split campaign gates. *)

module Regime = Sim.Regime
module Faults = Sim.Faults
module Epoch = Graybox.Tme_spec.Epoch
module Registry = Graybox.Registry
module S = Tme.Scenarios
module Campaign = Chaos.Campaign

(* plan values for the syntactic derivation only — never executed *)
let split ?(mode = Faults.Lossy) ~from_t ~until_t groups : (unit, unit) Faults.event =
  Faults.at from_t (Faults.Split { groups; from_t; until_t; mode })

let crash ~at ~until_t proc : (unit, unit) Faults.event =
  Faults.at at
    (Faults.Crash { proc = Faults.Proc proc; until_t; lose_deliveries = false })

let topo_label t = Printf.sprintf "e%d:%s@%d" t.Regime.epoch (Regime.groups_label t) t.Regime.since

let timeline_label tl =
  String.concat " " (List.map topo_label (Regime.epochs tl))

(* ------------------------------------------------------------------ *)
(* Segmentation                                                        *)

let test_trivial () =
  let tl = Regime.trivial ~n:4 in
  Alcotest.(check bool) "trivial is trivial" false (Regime.nontrivial tl);
  Alcotest.(check string) "one global epoch" "e0:{0,1,2,3}@0" (timeline_label tl);
  let empty = Regime.of_plan ~n:4 ([] : (unit, unit) Faults.plan) in
  Alcotest.(check string) "empty plan = trivial" (timeline_label tl)
    (timeline_label empty)

let test_split_segmentation () =
  let tl = Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:200 [ [ 0; 1 ] ] ] in
  Alcotest.(check bool) "nontrivial" true (Regime.nontrivial tl);
  Alcotest.(check string) "three epochs"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0,1,2,3}@200" (timeline_label tl);
  (* [at] keys on the epoch boundaries *)
  List.iter
    (fun (t, e) ->
      Alcotest.(check int) (Printf.sprintf "at %d" t) e (Regime.at tl t).Regime.epoch)
    [ (0, 0); (99, 0); (100, 1); (199, 1); (200, 2); (10_000, 2) ]

let test_degenerate_plans () =
  let trivial = timeline_label (Regime.trivial ~n:4) in
  let zero_width =
    Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:100 [ [ 0; 1 ] ] ]
  in
  Alcotest.(check string) "zero-width window ignored" trivial
    (timeline_label zero_width);
  let no_cut =
    Regime.of_plan ~n:4 [ split ~from_t:100 ~until_t:200 [ [ 3; 1; 0; 2 ] ] ]
  in
  Alcotest.(check string) "non-partitioning groups ignored" trivial
    (timeline_label no_cut)

let test_adjacent_merge () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:200 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:300 [ [ 1; 0 ] ] ]
  in
  Alcotest.(check string) "back-to-back identical splits merge"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0,1,2,3}@300" (timeline_label tl)

let test_overlap_refines () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:300 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:400 [ [ 0; 2 ] ] ]
  in
  Alcotest.(check string) "overlap is the pairwise refinement"
    "e0:{0,1,2,3}@0 e1:{0,1}|{2,3}@100 e2:{0}|{1}|{2}|{3}@200 \
     e3:{0,2}|{1,3}@300 e4:{0,1,2,3}@400"
    (timeline_label tl)

let test_crash_live () =
  let tl = Regime.of_plan ~n:3 [ crash ~at:50 ~until_t:120 1 ] in
  Alcotest.(check bool) "crash window is nontrivial" true (Regime.nontrivial tl);
  let during = Regime.at tl 80 and after = Regime.at tl 200 in
  Alcotest.(check bool) "dead during window" false during.Regime.live.(1);
  Alcotest.(check bool) "alive after" true after.Regime.live.(1)

let test_group_ops () =
  let tl = Regime.of_plan ~n:5 [ split ~from_t:10 ~until_t:20 [ [ 0; 3 ] ] ] in
  let topo = Regime.at tl 15 in
  Alcotest.(check (list int)) "group of 3" [ 0; 3 ] (Regime.group_members topo 3);
  Alcotest.(check (list int)) "remainder group" [ 1; 2; 4 ]
    (Regime.group_members topo 2);
  Alcotest.(check bool) "same group" true (Regime.same_group topo 0 3);
  Alcotest.(check bool) "cross group" false (Regime.same_group topo 0 4);
  Alcotest.(check int) "group_of out of range" (-1) (Regime.group_of topo 9)

let test_cursor_agrees_with_at () =
  let tl =
    Regime.of_plan ~n:4
      [ split ~from_t:100 ~until_t:300 [ [ 0; 1 ] ];
        split ~from_t:200 ~until_t:400 [ [ 0; 2 ] ] ]
  in
  let c = Regime.cursor tl in
  for t = 0 to 500 do
    Alcotest.(check int)
      (Printf.sprintf "advance %d" t)
      (Regime.at tl t).Regime.epoch (Regime.advance c t).Regime.epoch
  done;
  (* earlier times read the current epoch, not a rewind *)
  Alcotest.(check int) "monotone" (Regime.at tl 500).Regime.epoch
    (Regime.advance c 0).Regime.epoch

(* ------------------------------------------------------------------ *)
(* Online == offline equivalence                                       *)

(* Every registered protocol, both heal modes, >= 10 seeds: the epoch
   monitors of a recorded full-horizon run and of a run without a
   trace must produce the same report — verdict for verdict, reason
   for reason.  Odd seeds run unwrapped so the early exit (synthetic
   tail feed) is on the tested path. *)
let epoch_report ~record proto ~seed ~mode ~wrapper =
  let faults =
    [ S.Split { groups = [ [ 0; 1 ] ]; from_t = 300; until_t = 600; mode } ]
  in
  let r = S.run proto ~n:4 ~seed ~steps:1200 ~record ~wrapper ~faults in
  match r.S.epoch_spec with
  | Some ep -> ep
  | None -> Alcotest.fail "split plan produced no epoch report"

let test_online_offline_equivalence () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun mode ->
          for seed = 0 to 9 do
            let wrapper =
              if seed mod 2 = 0 then S.wrapped ~delta:e.Registry.default_delta ()
              else Graybox.Harness.Off
            in
            let off =
              epoch_report ~record:true e.Registry.proto ~seed ~mode ~wrapper
            in
            let on =
              epoch_report ~record:false e.Registry.proto ~seed ~mode ~wrapper
            in
            let label =
              Printf.sprintf "%s seed %d %s" e.Registry.name seed
                (match mode with
                 | Faults.Lossy -> "lossy"
                 | Faults.Buffered -> "buffered")
            in
            Alcotest.(check string)
              (label ^ " rendering")
              (Format.asprintf "%a" Epoch.pp off)
              (Format.asprintf "%a" Epoch.pp on);
            Alcotest.(check bool) (label ^ " structurally") true (off = on)
          done)
        [ Faults.Lossy; Faults.Buffered ])
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* During-split campaign gates                                         *)

(* The tolerant variant must pass its weak-ME1 gate with nonzero
   during-split grants; the never-heals ablation must be caught; and
   the whole report — per-epoch verdicts included — must be invariant
   in the worker count. *)
let during_cfg ~jobs =
  Campaign.config ~seeds:8 ~budget:4 ~n:4 ~steps:1200
    ~protocols:[ "ra-lease"; "ra-lease-stale" ]
    ~shrink:false ~jobs ~partitions:true ()

let find_cell report ~protocol ~wrapped ~during =
  match
    List.find_opt
      (fun (c : Campaign.cell) ->
        c.Campaign.cell_protocol = protocol
        && c.Campaign.cell_wrapped = wrapped
        && (c.Campaign.cell_during <> None) = during)
      report.Campaign.cells
  with
  | Some c -> c
  | None -> Alcotest.fail (Printf.sprintf "no %s cell (wrapped=%b)" protocol wrapped)

let test_during_gates () =
  let report = Campaign.run (during_cfg ~jobs:2) in
  Alcotest.(check bool) "campaign gate" true report.Campaign.gate_ok;
  Alcotest.(check bool) "during table present" true
    (Campaign.has_during_cells report);
  let lease = find_cell report ~protocol:"ra-lease" ~wrapped:true ~during:true in
  Alcotest.(check bool) "ra-lease during gate" true lease.Campaign.cell_ok;
  let grants =
    List.fold_left
      (fun acc (r : Campaign.row) ->
        match r.Campaign.row_epoch with
        | Some (_, entries) -> acc + entries
        | None -> acc)
      0 lease.Campaign.rows
  in
  Alcotest.(check bool) "serves during the split" true (grants > 0);
  List.iter
    (fun (r : Campaign.row) ->
      match r.Campaign.row_epoch with
      | Some (safe, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "ra-lease epoch-safe (seed %d)" r.Campaign.row_seed)
          true safe
      | None -> Alcotest.fail "during cell row without epoch verdict")
    lease.Campaign.rows;
  let stale =
    find_cell report ~protocol:"ra-lease-stale" ~wrapped:true ~during:true
  in
  Alcotest.(check bool) "ablation cell gated as failure" true
    (stale.Campaign.cell_expect = Campaign.Expect_failure);
  Alcotest.(check bool) "ablation caught" true stale.Campaign.cell_ok;
  Alcotest.(check bool) "some stale run is epoch-unsafe" true
    (List.exists
       (fun (r : Campaign.row) ->
         match r.Campaign.row_epoch with Some (safe, _) -> not safe | None -> false)
       stale.Campaign.rows);
  (* non-during cells never carry epoch verdicts (byte-identity) *)
  List.iter
    (fun (c : Campaign.cell) ->
      if c.Campaign.cell_during = None then
        List.iter
          (fun (r : Campaign.row) ->
            Alcotest.(check bool) "no epoch verdict outside during cells" true
              (r.Campaign.row_epoch = None))
          c.Campaign.rows)
    report.Campaign.cells

let test_during_jobs_invariant () =
  let render jobs =
    Chaos.Jsonx.to_string (Campaign.to_json (Campaign.run (during_cfg ~jobs)))
  in
  Alcotest.(check bool) "jobs=1 == jobs=4" true (render 1 = render 4)

let () =
  Alcotest.run "regime"
    [ ( "segmentation",
        [ Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "split" `Quick test_split_segmentation;
          Alcotest.test_case "degenerate" `Quick test_degenerate_plans;
          Alcotest.test_case "adjacent-merge" `Quick test_adjacent_merge;
          Alcotest.test_case "overlap-refines" `Quick test_overlap_refines;
          Alcotest.test_case "crash-live" `Quick test_crash_live;
          Alcotest.test_case "group-ops" `Quick test_group_ops;
          Alcotest.test_case "cursor" `Quick test_cursor_agrees_with_at ] );
      ( "equivalence",
        [ Alcotest.test_case "online==offline" `Slow
            test_online_offline_equivalence ] );
      ( "during-gates",
        [ Alcotest.test_case "tolerant-passes-ablation-caught" `Slow
            test_during_gates;
          Alcotest.test_case "jobs-invariant" `Slow test_during_jobs_invariant ] )
    ]
