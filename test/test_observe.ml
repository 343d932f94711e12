(* Tests for the observation layer: observer combinators, the
   engine's step stream, and — the load-bearing property — exact
   equivalence between the analyses folded while a run proceeds and
   the whole-trace reference definitions ([Offline], test-side), and
   between runs with and without a trace, across protocols, wrapper
   modes, and seeded fault plans (crashes included). *)

module H = Graybox.Harness
module S = Tme.Scenarios
module Stz = Graybox.Stabilize
module Ob = Sim.Observer

(* ------------------------------------------------------------------ *)
(* Observer combinators                                                *)

let dummy_step time : (int, unit) Ob.step =
  { Ob.time; event = Sim.Trace.Stutter; states = [||] }

let steps k = List.init k dummy_step

let counter () = Ob.fold ~init:0 ~f:(fun acc _ -> acc + 1)

let test_fold () =
  Alcotest.(check int) "counts steps" 5 (Ob.run (counter ()) (steps 5));
  Alcotest.(check int) "initial value" 0 (Ob.value (counter ()))

let test_map () =
  let o = Ob.map string_of_int (counter ()) in
  Alcotest.(check string) "mapped" "3" (Ob.run o (steps 3))

let test_pair () =
  let latest = Ob.fold ~init:(-1) ~f:(fun _ s -> s.Ob.time) in
  let c, t = Ob.run (Ob.pair (counter ()) latest) (steps 4) in
  Alcotest.(check (pair int int)) "both components" (4, 3) (c, t)

let test_premap () =
  (* shift times before they reach the inner observer *)
  let shifted = Ob.premap (fun s -> { s with Ob.time = s.Ob.time + 10 }) in
  let latest = Ob.fold ~init:(-1) ~f:(fun _ s -> s.Ob.time) in
  Alcotest.(check int) "premapped" 12 (Ob.run (shifted latest) (steps 3))

let test_sink () =
  let feed, peek = Ob.sink (counter ()) in
  Alcotest.(check int) "empty" 0 (peek ());
  List.iter feed (steps 3);
  Alcotest.(check int) "mid-stream" 3 (peek ());
  List.iter feed (steps 2);
  Alcotest.(check int) "after more" 5 (peek ())

(* ------------------------------------------------------------------ *)
(* Engine step stream                                                  *)

module R = H.Make (Tme.Ra_me)

let project (states : R.node array) = Array.map R.view states

let event_of = function
  | Sim.Trace.Init -> "init"
  | Sim.Trace.Deliver { src; dst; _ } -> Printf.sprintf "deliver(%d->%d)" src dst
  | Sim.Trace.Internal { pid; label } -> Printf.sprintf "%s(%d)" label pid
  | Sim.Trace.Fault { label } -> Printf.sprintf "fault(%s)" label
  | Sim.Trace.Stutter -> "stutter"

let test_stream_equals_trace () =
  let params = H.params ~n:3 () in
  let engine = R.make_engine ~record:true params ~seed:42 in
  let seen = ref [] in
  R.Run.add_observer engine (fun (s : (R.node, R.envelope) Ob.step) ->
      (* the states array is live: project (= copy) before retaining *)
      seen := (s.Ob.time, event_of s.Ob.event, project s.Ob.states) :: !seen);
  let plan =
    [ Sim.Faults.at 40 (R.fault_drop_any Sim.Faults.Any_chan ~count:2);
      Sim.Faults.at 90 (R.fault_corrupt_process Sim.Faults.Any_proc) ]
  in
  R.Run.run ~plan ~steps:200 engine;
  let observed = List.rev !seen in
  let recorded =
    List.map
      (fun (snap : (R.node, R.envelope) Sim.Trace.snapshot) ->
        (snap.Sim.Trace.time, event_of snap.Sim.Trace.event,
         project snap.Sim.Trace.states))
      (R.Run.trace engine)
  in
  Alcotest.(check int)
    "one step per snapshot" (List.length recorded) (List.length observed);
  List.iter2
    (fun (rt, re, rv) (ot, oe, ov) ->
      Alcotest.(check int) "same time" rt ot;
      Alcotest.(check string) "same event" re oe;
      Alcotest.(check bool) "same views" true (rv = ov))
    recorded observed

let test_observe_thunk () =
  let params = H.params ~n:3 () in
  let engine = R.make_engine ~record:false params ~seed:7 in
  let peek = R.Run.observe engine (counter ()) in
  Alcotest.(check int) "init replayed on attach" 1 (peek ());
  R.Run.run ~steps:50 engine;
  Alcotest.(check int) "one step per move" 51 (peek ())

(* ------------------------------------------------------------------ *)
(* Online analysis == offline analysis                                 *)

(* every registered protocol, the safety mutant included *)
let protocols_under_test =
  List.map
    (fun (e : Graybox.Registry.entry) ->
      (e.Graybox.Registry.name, e.Graybox.Registry.proto))
    (Graybox.Registry.all ())

let wrappers = [ ("off", H.Off); ("W'(8)", S.wrapped ~delta:8 ()) ]

let n = 4
let horizon = 1500

let plan_for seed =
  let cfg = Chaos.Plan_gen.config ~n ~horizon ~budget:4 () in
  Chaos.Plan_gen.generate (Stdext.Rng.create ((seed * 1_000_003) + 7919)) cfg

(* a plan with a lossy crash window, in case the generator draws none *)
let crash_plan =
  [ S.Corrupt_state { at = 120; procs = Sim.Faults.Any_proc };
    S.Crash
      { procs = Sim.Faults.Proc 1; from_t = 200; until_t = 260; lose = true } ]

let seeds = List.init 10 (fun i -> i + 1)

let test_online_fold_equals_offline () =
  (* the run's analysis fold, and the same fold over the recorded
     trace, reproduce the whole-trace reference definitions exactly,
     on every grid cell *)
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun (wname, wrapper) ->
          List.iter
            (fun seed ->
              let faults =
                if seed = List.hd seeds then crash_plan else plan_for seed
              in
              let r = S.run proto ~wrapper ~faults ~n ~seed ~steps:horizon in
              let cell = Printf.sprintf "%s/%s/seed %d" pname wname seed in
              let ol = Stz.Online.of_trace r.S.vtrace in
              let reference = Offline.analyse r.S.vtrace in
              let after =
                Option.value reference.Stz.last_fault_index ~default:0
              in
              Alcotest.(check bool)
                (cell ^ ": same analysis") true
                (r.S.analysis = reference && Stz.Online.analysis ol = reference);
              Alcotest.(check (option int))
                (cell ^ ": same latency")
                (Offline.service_round_latency r.S.vtrace ~after)
                r.S.recovery_latency;
              Alcotest.(check (option int))
                (cell ^ ": same latency over the trace")
                r.S.recovery_latency (Stz.Online.latency ol))
            seeds)
        wrappers)
    protocols_under_test

let test_streaming_run_equals_recorded () =
  (* a run without a trace (free to exit early) reports the recorded
     full-horizon run's analysis, entry log, and metrics, field for
     field *)
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun (wname, wrapper) ->
          List.iter
            (fun seed ->
              let faults =
                if seed = 1 then crash_plan else plan_for seed
              in
              let go record =
                S.run proto ~wrapper ~faults ~record ~n ~seed ~steps:horizon
              in
              let rec_ = go true and str = go false in
              let cell = Printf.sprintf "%s/%s/seed %d" pname wname seed in
              Alcotest.(check bool)
                (cell ^ ": analysis") true
                (str.S.analysis = rec_.S.analysis);
              Alcotest.(check (option int))
                (cell ^ ": latency")
                rec_.S.recovery_latency str.S.recovery_latency;
              Alcotest.(check bool)
                (cell ^ ": entry log") true
                (str.S.entry_log = rec_.S.entry_log);
              Alcotest.(check bool)
                (cell ^ ": epoch report") true
                (str.S.epoch_spec = rec_.S.epoch_spec);
              Alcotest.(check int)
                (cell ^ ": entries")
                rec_.S.total_entries str.S.total_entries;
              Alcotest.(check int)
                (cell ^ ": sent") rec_.S.sent_total str.S.sent_total;
              Alcotest.(check int)
                (cell ^ ": wrapper sends")
                rec_.S.wrapper_sends str.S.wrapper_sends;
              Alcotest.(check int)
                (cell ^ ": delivered") rec_.S.delivered str.S.delivered;
              Alcotest.(check bool) (cell ^ ": no trace kept") true
                (str.S.vtrace = []))
            [ 1; 2; 3 ])
        wrappers)
    (List.filter
       (fun (name, _) ->
         List.mem name [ "ra"; "lamport"; "lamport-unmod"; "central" ])
       protocols_under_test)

let test_streaming_deadlock_early_exit () =
  (* the §4 deadlock: a run without a trace stops once permanently
     quiescent, yet reports the same analysis as the full recorded
     horizon *)
  let proto = List.assoc "ra" protocols_under_test in
  let faults = [ S.Drop_requests_window { from_t = 150; until_t = 210 } ] in
  let go record = S.run proto ~faults ~record ~n ~seed:1 ~steps:horizon in
  let rec_ = go true and str = go false in
  Alcotest.(check bool) "same analysis" true (str.S.analysis = rec_.S.analysis);
  Alcotest.(check bool) "deadlocked" false str.S.analysis.Stz.recovered;
  Alcotest.(check bool)
    (Printf.sprintf "early exit (%d < %d)" str.S.sim_steps horizon)
    true
    (str.S.sim_steps < horizon);
  Alcotest.(check int) "recorded runs the full horizon" horizon rec_.S.sim_steps

let test_live_monitors_equal_offline_report () =
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun seed ->
          let faults = plan_for seed in
          let rec_ = S.run proto ~faults ~n ~seed ~steps:horizon in
          let str =
            S.run proto ~faults ~record:false ~live_monitors:true ~n ~seed
              ~steps:horizon
          in
          let cell = Printf.sprintf "%s/seed %d" pname seed in
          (* the whole-trace ME1-ME3 reference over the recorded run *)
          let reference =
            Unityspec.Report.to_string
              (Offline.check_all ~n ~entries:rec_.S.entry_log rec_.S.vtrace)
          in
          Alcotest.(check string)
            (cell ^ ": monitors over the trace")
            reference
            (Unityspec.Report.to_string (S.tme_report rec_));
          match str.S.live_spec with
          | None -> Alcotest.fail (cell ^ ": live_spec missing")
          | Some live ->
            Alcotest.(check string)
              (cell ^ ": same TME_Spec report")
              reference
              (Unityspec.Report.to_string live))
        [ 1; 2; 3 ])
    (List.filter
       (fun (name, _) -> List.mem name [ "ra"; "lamport" ])
       protocols_under_test)

let test_stateful_monitor_latches () =
  let open Unityspec in
  let m =
    Online.stateful ~init:0 ~step:(fun sum x ->
        let sum = sum + x in
        ( sum,
          if sum > 10 then Temporal.Violated { at = sum; reason = "overflow" }
          else Temporal.Holds ))
  in
  Alcotest.(check bool) "holds initially" true
    (Online.verdict m = Temporal.Holds);
  let m = Online.feed_all m [ 4; 8 ] in
  (match Online.verdict m with
   | Temporal.Violated { at; _ } -> Alcotest.(check int) "at" 12 at
   | _ -> Alcotest.fail "must be violated");
  (* further input cannot repair a violated safety monitor *)
  let m = Online.feed_all m [ -100 ] in
  Alcotest.(check bool) "latched" true
    (match Online.verdict m with Temporal.Violated _ -> true | _ -> false)

let () =
  Alcotest.run "observe"
    [ ( "combinators",
        [ Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "pair" `Quick test_pair;
          Alcotest.test_case "premap" `Quick test_premap;
          Alcotest.test_case "sink" `Quick test_sink;
          Alcotest.test_case "stateful latches" `Quick
            test_stateful_monitor_latches ] );
      ( "engine",
        [ Alcotest.test_case "step stream == recorded trace" `Quick
            test_stream_equals_trace;
          Alcotest.test_case "observe thunk" `Quick test_observe_thunk ] );
      ( "equivalence",
        [ Alcotest.test_case "online fold == offline analyse (full grid)"
            `Quick test_online_fold_equals_offline;
          Alcotest.test_case "streaming run == recorded run" `Quick
            test_streaming_run_equals_recorded;
          Alcotest.test_case "deadlock early exit" `Quick
            test_streaming_deadlock_early_exit;
          Alcotest.test_case "live monitors == offline report" `Quick
            test_live_monitors_equal_offline_report ] ) ]
