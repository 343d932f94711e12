(* Golden-schedule suite: the engine's event-indexed scheduler (Fenwick
   action counts + the network's live-channel rank/select sets) must
   keep producing the schedules recorded in [golden_schedules] — same
   RNG draws, same (kind, index) selection, same trace, same verdicts.
   The file was generated by an engine that still carried the original
   per-step full-scan scheduler beside the indexed one, and whose own
   test asserted the two bit-identical on exactly this grid; the scan
   scheduler is gone, and its guarantee lives on as these digests.

   The grid crosses every registered protocol (references, ablations,
   and negative controls — a protocol that deadlocks or violates
   safety must keep doing so identically) with fault scripts that
   exercise the index maintenance paths: bursts (state corruption +
   message loss), crash windows with and without losing deliveries
   (the scheduler keeps an explicit crashed-pid list), buffered splits
   (waiting-channel promotion), and heavy-tail delays (the waiting
   set); each cell also runs fault-free.  Every run digests its event
   list, per-snapshot views, forced channels, oracle entry log,
   analysis and verdicts; every open-loop load run digests its whole
   [Load.result], latency samples included.

   Regenerate (only when a schedule change is intended, and say why in
   the change log):

     dune build test/test_scheduler_equiv.exe
     GOLDEN_SCHEDULES_WRITE=1 ./_build/default/test/test_scheduler_equiv.exe \
       > test/golden_schedules *)

module R = Graybox.Registry
module S = Tme.Scenarios

let entries = R.all ()

(* Fault script touching every index-maintenance path; times sit well
   inside the horizon so recovery is observable. *)
let stress_faults =
  S.burst ~at:300
  @ [ S.Crash
        { procs = Sim.Faults.Proc 0; from_t = 500; until_t = 700; lose = true };
      S.Crash
        { procs = Sim.Faults.Proc 1; from_t = 900; until_t = 1000; lose = false };
      S.Split
        { groups = [ [ 0; 1 ] ];
          from_t = 1200;
          until_t = 1400;
          mode = Sim.Faults.Buffered };
      S.Delay
        { at = 1600;
          chan = Sim.Faults.Any_chan;
          dist = Sim.Faults.Heavy_tail { mean = 3; cap = 12 } } ]

(* Marshal without sharing sees only the structure of a value, so the
   digest is a function of the data alone.  Views are flattened first:
   [local_req] is a balanced map, whose tree shape could differ between
   equal maps. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let flat_view (v : Graybox.View.t) =
  ( v.Graybox.View.self,
    v.Graybox.View.mode,
    v.Graybox.View.req,
    Sim.Pid.Map.bindings v.Graybox.View.local_req,
    v.Graybox.View.clock )

let scenario_digest (r : S.result) =
  let trace =
    List.map
      (fun (snap : _ Sim.Trace.snapshot) ->
        ( snap.Sim.Trace.time,
          snap.Sim.Trace.event,
          Array.map flat_view snap.Sim.Trace.states,
          Sim.Trace.channels snap ))
      r.S.vtrace
  in
  digest
    ( trace,
      r.S.entry_log,
      r.S.analysis,
      r.S.recovery_latency,
      S.tme_report r,
      r.S.epoch_spec,
      ( r.S.total_entries,
        r.S.sent_total,
        r.S.wrapper_sends,
        r.S.delivered,
        r.S.sim_steps ) )

let ns = [ 3; 4; 5; 6; 7; 8 ]
let seeds = [ 7; 101 ]

(* One (key, digest thunk) per golden line, in file order. *)
let scenario_cases ~kind ~faults =
  List.concat_map
    (fun (e : R.entry) ->
      List.concat_map
        (fun seed ->
          List.map
            (fun n ->
              ( Printf.sprintf "%s %s n=%d seed=%d" kind e.R.name n seed,
                fun () ->
                  scenario_digest
                    (S.run e.R.proto
                       ~wrapper:(S.wrapped ~delta:e.R.default_delta ())
                       ~faults ~n ~seed ~steps:2500) ))
            ns)
        seeds)
    entries

let faulted_cases = scenario_cases ~kind:"faulted" ~faults:stress_faults
let clean_cases = scenario_cases ~kind:"clean" ~faults:[]

let load_cases =
  List.map
    (fun (e : R.entry) ->
      ( Printf.sprintf "load %s n=40 seed=5" e.R.name,
        fun () ->
          let r =
            Tme.Load.run e.R.proto ~n:40 ~seed:5 ~rate:0.02 ~max_requests:25
              ~max_steps:12000 ()
          in
          assert (r.Tme.Load.requests = r.Tme.Load.grants);
          digest r ))
    (R.all ~role:R.Reference ())

let golden =
  lazy
    (let ic = open_in "golden_schedules" in
     let tbl = Hashtbl.create 512 in
     (try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | Some i ->
              Hashtbl.replace tbl (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
            | None -> failwith ("golden_schedules: bad line " ^ line)
        done
      with End_of_file -> close_in ic);
     tbl)

let check_cases cases () =
  List.iter
    (fun (key, run) ->
      match Hashtbl.find_opt (Lazy.force golden) key with
      | None -> Alcotest.failf "golden_schedules has no line for %s" key
      | Some want -> Alcotest.(check string) key want (run ()))
    cases

let test_load_jobs_invariant () =
  (* Pool.map with any worker count returns the same rows in the same
     order: load runs share no state, so --jobs is a wall-clock knob,
     never a results knob *)
  let sweep jobs =
    Stdext.Pool.map ~jobs
      (fun (name, seed) ->
        let e = Option.get (R.find name) in
        Tme.Load.run e.R.proto ~n:30 ~seed ~rate:0.02 ~max_requests:20
          ~max_steps:10000 ())
      [ ("ra", 1); ("ra", 2); ("lamport", 1); ("central", 9); ("ra-gcl", 3) ]
  in
  let serial = sweep 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true
        (sweep jobs = serial))
    [ 2; 4 ]

let write_golden () =
  print_string
    "# Schedule digests of the indexed engine, one per scenario or load run\n\
     # (test_scheduler_equiv.ml says what each digest covers).  Generated by:\n\
     #   dune build test/test_scheduler_equiv.exe\n\
     #   GOLDEN_SCHEDULES_WRITE=1 ./_build/default/test/test_scheduler_equiv.exe \
     > test/golden_schedules\n";
  List.iter
    (fun (key, run) -> Printf.printf "%s %s\n" key (run ()))
    (faulted_cases @ clean_cases @ load_cases)

let () =
  if Sys.getenv_opt "GOLDEN_SCHEDULES_WRITE" <> None then write_golden ()
  else
    Alcotest.run "scheduler_equiv"
      [ ( "golden schedules",
          [ Alcotest.test_case "registry x seed x n grid, faulted" `Slow
              (check_cases faulted_cases);
            Alcotest.test_case "registry x seed x n grid, clean" `Quick
              (check_cases clean_cases);
            Alcotest.test_case "open-loop load" `Quick (check_cases load_cases);
            Alcotest.test_case "load invariant under --jobs" `Quick
              test_load_jobs_invariant ] ) ]
