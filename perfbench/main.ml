(* The repository's benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1

   One client, this process, drives one workload in a closed loop: it
   issues the next call into the repository only when the previous one
   has returned.  Every call goes through a public interface (Mcheck,
   Mcheck.Oracle, Stdext.Pool, Sim.Engine, Tme.Load, Chaos.Campaign,
   Chaos.Shrink, Synth), is timed from outside with a monotonic clock,
   and has its output checked.  Calls are timed warm: set-up makes one
   reduced-size call of each timed variant, so the heap has grown and
   the code is paged in before the first timed call.  setup_s is what
   that warm-up costs a fresh process, which every CLI invocation pays:
   the median of five cold set-ups, this process's own and four in
   fresh copies of this program (--fresh V).  Each copy then makes one
   full-size call of variant V, the variants taken in turn, and
   peak_rss_mb is the peak resident set of such a process, the median
   per variant and the largest variant's.  ".par" means jobs = the
   number of cores the runtime recommends; no workload uses more
   domains than that.

   With --trace 0 the run reports the end-to-end metrics (tracing off).
   With --trace 1 it reports the per-layer metrics: rounds alternate
   between untraced and traced (spans around every call and a
   Runtime_events consumer), and then the workload's layer probes run
   traced; the spans are written to perfbench/out/.  The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics. *)

let nproc = Domain.recommended_domain_count ()
let out_dir = Filename.concat "perfbench" "out"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* Every run prints every metric of its mode.  A layer the workload
   does not exercise reads 0: its calls were never made. *)

let end_to_end =
  [ ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("rate.j1", "1/s");
    ("rate.par", "1/s") ]

let per_layer =
  [ (* mcheck: exact counts from [stats], words from Gc counters *)
    ("mcheck.explored", "count");
    ("mcheck.visited", "count");
    ("mcheck.frontier_peak", "count");
    ("mcheck.peak_mem_words", "words");
    ("mcheck.spill_bytes", "bytes");
    ("mcheck.minor_words_per_state", "words");
    ("mcheck.promoted_words_per_state", "words");
    ("mcheck.par_speedup", "ratio");
    ("mcheck.spill_slowdown", "ratio");
    ("mcheck.states_per_s.spill", "1/s");
    (* stdext.pool and the runtime *)
    ("pool.map_us.p50", "us");
    ("pool.map_us.tail", "us");
    ("runtime.domain_spawns", "count");
    ("runtime.minor_gcs", "count");
    ("runtime.major_slices", "count");
    ("runtime.gc_ms", "ms");
    ("runtime.stw_ms", "ms");
    ("runtime.gc_ms.j1", "ms");
    ("runtime.stw_ms.j1", "ms");
    ("runtime.lost_events", "count");
    (* chaos *)
    ("campaign.rows", "count");
    ("campaign.shrink_runs", "count");
    ("campaign.cells_failed", "count");
    ("campaign.row_ms.p50", "ms");
    ("campaign.row_ms.tail", "ms");
    ("campaign.sim_share", "ratio");
    ("campaign.shrink_share", "ratio");
    ("campaign.par_speedup", "ratio");
    (* sim and tme *)
    ("load.steps_run", "count");
    ("load.requests", "count");
    ("load.grants", "count");
    ("load.grant_p50_steps", "steps");
    ("load.grant_tail_steps", "steps");
    ("load.grant_tail_pct", "%");
    ("load.grant_tail_samples", "count");
    ("load.minor_words_per_step", "words");
    ("load.protocol_share", "ratio");
    ("engine.steps_per_s", "1/s");
    ("engine.minor_words_per_step", "words");
    (* synth and the oracle *)
    ("synth.enumerated", "count");
    ("synth.checked", "count");
    ("synth.pruned", "count");
    ("synth.oracle_runs", "count");
    ("synth.oracle_states", "count");
    ("synth.useful_ratio", "ratio");
    ("synth.par_speedup", "ratio");
    ("synth.oracle_share", "ratio");
    ("oracle.call_ms.p50", "ms");
    ("oracle.call_ms.tail", "ms");
    ("oracle.states_per_s", "1/s");
    (* host and tracing *)
    ("host.calib_ms", "ms");
    ("trace.overhead", "ratio");
    ("bench.failed_ratio", "ratio") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let seti name v = set name (float_of_int v)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* Statistics and clocks (the benchmark's own, so they never change    *)
(* with the code under test)                                           *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (sorted xs) in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The highest nearest-rank percentile with at least ten samples above
   it: (percentile, value), or None below eleven samples. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let k = Array.length a in
  if k < 11 then None
  else
    let rank = k - 10 in
    Some (100. *. float_of_int rank /. float_of_int k, a.(rank - 1))

let tail_value xs = match tail xs with Some (_, v) -> v | None -> nan
let sum = List.fold_left ( +. ) 0.

(** [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = Probe.now_ns () in
  let v = f () in
  (v, Probe.ns_to_ms (Int64.sub (Probe.now_ns ()) t0) /. 1000.)

(* A fixed CPU loop: how fast the host ran, at the start and the end of
   the run. *)
let calib_ms () =
  snd
    (timed (fun () ->
         let x = ref 1 in
         for i = 1 to 30_000_000 do
           x := ((!x * 1103515245) + i) land 0x3fffffff
         done;
         Sys.opaque_identity !x))
  *. 1000.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* [words f] is [(f (), minor words, promoted words)] for one call of
   [f] from a fully collected heap, with span recording off so that the
   trace's own allocation is not counted.  The minor-word count is exact
   for code that runs on the calling domain alone ([Gc.minor_words];
   [Gc.counters] rounds it to the last collection).  Promotion depends
   on where the collections fall, so it varies by a few percent. *)
let words f =
  Gc.full_major ();
  let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
  let v = Probe.untraced f in
  let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
  (v, m1 -. m0, p1 -. p0)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* A timed variant: [call k] is the timed call on the loop's k-th input
   (the workloads with a fixed input ignore [k]); the thunk it returns
   runs untimed, checks the output and returns the units of work the
   call did. *)
type variant = { vname : string; call : int -> unit -> float }

type workload = {
  setup : unit -> unit;
      (* one reduced-size call of each variant, timed cold *)
  call_span : string;  (* span name of the timed call *)
  variants : variant list;  (* timed in every round *)
  unit_of_work : string;
  layers : secs:(string -> float) -> rate:(string -> float) -> unit;
      (* traced layer probes, after the timed loop; [secs v] is the
         median and [rate v] the throughput of variant [v]'s untraced
         calls *)
}

let registry_proto name =
  match Graybox.Registry.find name with
  | Some e -> e.Graybox.Registry.proto
  | None -> failwith ("protocol not registered: " ^ name)

(* [same_as_first what] remembers the first value it is given and checks
   every later one against it: the same input must give the same
   output on every call, whatever the jobs count. *)
let same_as_first what =
  let first = ref None in
  fun eq v ->
    match !first with
    | None -> first := Some v
    | Some f -> check (what ^ " repeats") (eq f v)

(* ---- check-ra ---------------------------------------------------- *)

(* The checker anchor: ra, n=3, depth 16, Init mode, in RAM at jobs=1
   and jobs=nproc, timed in the loop, and under a hot-memory budget that
   forces the visited set to spill, timed in the traced run's layer
   probes.  The state cap is bench/main.ml's for the same anchor, and a
   search must end below it: a capped search would time less work while
   every equality check still held.  Deterministic: the seed changes
   nothing. *)
let check_ra ~seed:_ =
  let proto = registry_proto "ra" in
  let spill_dir = Filename.concat out_dir "spill" in
  let max_states = 1_000_000 in
  let search ?mem_budget ~depth jobs =
    Mcheck.check_me1 proto ~n:3 ~jobs ~max_depth:depth ~max_states
      ?mem_budget
      ?spill_dir:(Option.map (fun _ -> spill_dir) mem_budget)
      ()
  in
  let budget = 400_000 in
  let safe what = function
    | Mcheck.Ok st ->
      check (what ^ " safe") true;
      check (what ^ " below the state cap") (st.visited < max_states);
      Some st
    | Mcheck.Violation _ -> check (what ^ " safe") false; None
  in
  let strip (s : Mcheck.stats) = { s with peak_mem_words = 0; spill_bytes = 0 } in
  let reference = same_as_first "check-ra stats" in
  let variant vname jobs =
    { vname;
      call =
        (fun _ ->
          let r = search ~depth:16 jobs in
          fun () ->
            match safe ("check-ra." ^ vname) r with
            | None -> 0.
            | Some st ->
              reference ( = ) (strip st);
              float_of_int st.explored) }
  in
  let layers ~secs ~rate:_ =
    let r, minor, promoted =
      Probe.span "mcheck.check_me1.j1" (fun () ->
          words (fun () -> search ~depth:16 1))
    in
    match safe "check-ra layers" r with
    | None -> ()
    | Some st ->
      let per_state x = x /. float_of_int st.explored in
      let spill_secs =
        List.init 3 (fun _ ->
            Gc.full_major ();
            let r, dt =
              timed (fun () ->
                  Probe.span "mcheck.check_me1.spill" (fun () ->
                      search ~mem_budget:budget ~depth:16 1))
            in
            (match safe "check-ra.spill" r with
             | None -> ()
             | Some sp ->
               reference ( = ) (strip sp);
               check "check-ra.spill spills" (sp.spill_bytes > 0);
               seti "mcheck.spill_bytes" sp.spill_bytes);
            dt)
      in
      seti "mcheck.explored" st.explored;
      seti "mcheck.visited" st.visited;
      seti "mcheck.frontier_peak" st.frontier_peak;
      seti "mcheck.peak_mem_words" st.peak_mem_words;
      set "mcheck.minor_words_per_state" (per_state minor);
      set "mcheck.promoted_words_per_state" (per_state promoted);
      set "mcheck.par_speedup" (secs "j1" /. secs "par");
      set "mcheck.spill_slowdown" (median spill_secs /. secs "j1");
      set "mcheck.states_per_s.spill"
        (float_of_int st.explored /. median spill_secs)
  in
  { setup =
      (fun () ->
        List.iter
          (fun jobs -> ignore (safe "check-ra setup" (search ~depth:12 jobs)))
          [ 1; nproc ]);
    call_span = "mcheck.check_me1";
    variants = [ variant "j1" 1; variant "par" nproc ];
    unit_of_work = "states";
    layers }

(* ---- chaos-partition --------------------------------------------- *)

(* The wrapper a wrapped cell of [protocol] composes.  Campaign keeps
   this choice private, and a report row does not carry it (only a
   counterexample does, as [cx_wrapper]), so re-driving the rows needs
   a copy of it.  This is the benchmark's one use of the wrapper
   representation below the public campaign API: when Harness.On and
   On_term become one constructor, this function follows.  A copy that
   no longer matches Campaign's choice fails the re-driven verdict
   checks rather than passing silently. *)
let campaign_wrapper ~delta protocol =
  match (Option.get (Graybox.Registry.find protocol)).wrapper_term with
  | None -> Tme.Scenarios.wrapped ~delta ()
  | Some term -> Tme.Scenarios.wrapped_term ~term ~delta ()

(* The campaign CI gates, exactly as CI runs them: partitions on, six
   protocols, 25 plans of 4 events, 1200 steps, shrinking on, base
   seed 1.  The campaign is fixed, like the searches of check-ra and
   synth-cegis, so the seed changes nothing.  Work is counted in
   campaigns, one per call, so the rate is 1/campaign_s whatever the
   shrinker does; how many shrink runs a campaign makes is the
   per-layer count campaign.shrink_runs. *)
let chaos_partition ~seed:_ =
  let protocols =
    [ "lamport"; "ra"; "lamport-unmod"; "ra-mutant"; "ra-lease";
      "ra-lease-stale" ]
  in
  let cfg ?(seeds = 25) jobs =
    Chaos.Campaign.config ~base_seed:1 ~seeds ~budget:4 ~n:4 ~steps:1200
      ~delta:8 ~protocols ~shrink:true ~partitions:true ~jobs ()
  in
  let last = ref None in
  let reference = same_as_first "chaos report" in
  let variant vname jobs =
    { vname;
      call =
        (fun _ ->
          let r = Chaos.Campaign.run (cfg jobs) in
          fun () ->
            check ("chaos." ^ vname ^ " gate_ok") r.gate_ok;
            reference ( = ) (r.cells, r.counterexamples);
            last := Some r;
            1.) }
  in
  let layers ~secs ~rate:_ =
    let r = Option.get !last in
    let c = r.report_config in
    let wrapper_of (cell : Chaos.Campaign.cell) =
      if cell.cell_wrapped then campaign_wrapper ~delta:c.delta cell.cell_protocol
      else Graybox.Harness.Off
    in
    let scenario protocol wrapper seed =
      { Chaos.Shrink.protocol; proto = registry_proto protocol; wrapper;
        n = c.n; seed; steps = c.steps }
    in
    let row_ms =
      List.concat_map
        (fun (cell : Chaos.Campaign.cell) ->
          let sc = scenario cell.cell_protocol (wrapper_of cell) in
          List.map
            (fun (row : Chaos.Campaign.row) ->
              let v, dt =
                timed (fun () ->
                    Probe.span "chaos.shrink.verdict" (fun () ->
                        Chaos.Shrink.verdict (sc row.row_seed) row.row_plan))
              in
              check "chaos row verdict re-driven" (v = row.row_verdict);
              dt *. 1000.)
            cell.rows)
        r.cells
    in
    let shrink_ms =
      List.map
        (fun (cx : Chaos.Campaign.counterexample) ->
          let sc = scenario cx.cx_protocol cx.cx_wrapper cx.cx_seed in
          let s, dt =
            timed (fun () ->
                Probe.span "chaos.shrink.shrink" (fun () ->
                    Chaos.Shrink.shrink ~max_runs:c.shrink_max_runs sc
                      cx.cx_shrink.original))
          in
          check "chaos shrink re-driven" (s = cx.cx_shrink);
          dt *. 1000.)
        r.counterexamples
    in
    let campaign_ms = secs "j1" *. 1000. in
    seti "campaign.rows" (List.length row_ms);
    seti "campaign.shrink_runs"
      (List.fold_left
         (fun acc (cx : Chaos.Campaign.counterexample) -> acc + cx.cx_shrink.runs)
         0 r.counterexamples);
    seti "campaign.cells_failed"
      (List.length
         (List.filter
            (fun (cell : Chaos.Campaign.cell) ->
              List.exists
                (fun (row : Chaos.Campaign.row) ->
                  Chaos.Outcome.is_failure row.row_verdict)
                cell.rows)
            r.cells));
    set "campaign.row_ms.p50" (median row_ms);
    set "campaign.row_ms.tail" (tail_value row_ms);
    set "campaign.sim_share" (sum row_ms /. campaign_ms);
    set "campaign.shrink_share" (sum shrink_ms /. campaign_ms);
    set "campaign.par_speedup" (secs "j1" /. secs "par")
  in
  { setup =
      (fun () ->
        (* three plans are too few for the negative controls' gates to
           bite, so the warm-up's report is not checked *)
        List.iter (fun jobs -> ignore (Chaos.Campaign.run (cfg ~seeds:3 jobs)))
          [ 1; nproc ]);
    call_span = "chaos.campaign.run";
    variants = [ variant "j1" 1; variant "par" nproc ];
    unit_of_work = "campaigns";
    layers }

(* ---- load-ra-1k --------------------------------------------------- *)

(* A protocol-free node for the bare-engine baseline: every process
   always has one action, which sends a token to its ring successor. *)
module Bare_node = struct
  type state = { self : int; n : int; count : int }
  type msg = Token

  let receive ~self:_ ~from:_ Token s = ({ s with count = s.count + 1 }, [])

  let actions ~self:_ _ =
    [ ("pass",
       fun s ->
         ({ s with count = s.count + 1 }, [ ((s.self + 1) mod s.n, Token) ])) ]
end

module Bare_engine = Sim.Engine.Make (Bare_node)

(* ra at n=1000 under open-loop Poisson arrivals at 0.2/n per step,
   latency counted from each request's intended arrival.  The loop's
   k-th input is load seed [seed + k]: how much work a step does
   depends on the arrival pattern (steps/s differed by a fifth between
   two seeds), so each run averages over a run of seeds.  Load.run
   takes no jobs and runs on the calling domain, so this workload has
   no par variant. *)
let load_ra_1k ~seed =
  let proto = registry_proto "ra" in
  let n = 1000 in
  let requests = 200 in
  let load ~seed requests =
    Tme.Load.run proto ~n ~seed ~rate:(0.2 /. float_of_int n)
      ~max_requests:requests ~max_steps:(((5 * requests) + 400) * n) ()
  in
  let ok ~requests what (r : Tme.Load.result) =
    check (what ^ " grants = requests")
      (r.grants = r.requests && r.requests = requests)
  in
  let first = ref None in
  let j1 =
    { vname = "j1";
      call =
        (fun k ->
          let r = load ~seed:(seed + k) requests in
          fun () ->
            ok ~requests "load.j1" r;
            if k = 0 then first := Some r;
            float_of_int r.steps_run) }
  in
  let layers ~secs:_ ~rate =
    (* the exact counts are those of load seed [seed], the first call's *)
    let r, minor, _ =
      Probe.span "tme.load.run" (fun () -> words (fun () -> load ~seed requests))
    in
    check "load result repeats" (!first = Some r);
    let lat = List.map float_of_int (Array.to_list r.latencies) in
    seti "load.steps_run" r.steps_run;
    seti "load.requests" r.requests;
    seti "load.grants" r.grants;
    set "load.grant_p50_steps" (median lat);
    (match tail lat with
     | Some (pct, v) ->
       set "load.grant_tail_steps" v;
       set "load.grant_tail_pct" pct;
       seti "load.grant_tail_samples" (List.length lat)
     | None -> check "load tail has ten samples beyond it" false);
    set "load.minor_words_per_step" (minor /. float_of_int r.steps_run);
    let bare_steps = 1_000_000 in
    let eng =
      Bare_engine.create
        (Bare_engine.config ~record:false ~n ~seed ())
        ~init:(fun self -> { Bare_node.self; n; count = 0 })
    in
    let ((), minor, _), dt =
      timed (fun () ->
          Probe.span "sim.engine.run" (fun () ->
              words (fun () -> Bare_engine.run ~steps:bare_steps eng)))
    in
    check "bare engine ran every step" (Bare_engine.time eng = bare_steps);
    let bare_ns = dt *. 1e9 /. float_of_int bare_steps in
    let load_ns = 1e9 /. rate "j1" in
    set "engine.steps_per_s" (float_of_int bare_steps /. dt);
    set "engine.minor_words_per_step" (minor /. float_of_int bare_steps);
    set "load.protocol_share" (1. -. (bare_ns /. load_ns))
  in
  { setup = (fun () -> ok ~requests:20 "load setup" (load ~seed 20));
    call_span = "tme.load.run";
    variants = [ j1 ];
    unit_of_work = "engine steps";
    layers }

(* ---- synth-cegis -------------------------------------------------- *)

(* Synth.synthesize at its defaults (n=2) over every synthesizable
   reference plus lamport, which must exhaust its budget.  Deterministic:
   the seed changes nothing. *)
let synth_cegis ~seed:_ =
  let targets = [ "ra"; "ra-gcl"; "ra-lease"; "lamport" ] in
  let protos = List.map (fun t -> (t, registry_proto t)) targets in
  let pass jobs =
    let cfg = Synth.config ~n:2 ~jobs () in
    List.map
      (fun (t, p) -> (t, Probe.span "synth.synthesize" (fun () -> Synth.synthesize p cfg)))
      protos
  in
  let same_attempt (a : Synth.attempt) (b : Synth.attempt) =
    a.index = b.index && a.outcome = b.outcome
    && Graybox.Wrapper.equal a.term b.term
  in
  let same_result (a : Synth.result) (b : Synth.result) =
    (match (a.synthesized, b.synthesized) with
     | Some x, Some y -> Graybox.Wrapper.equal x y
     | None, None -> true
     | _ -> false)
    && List.length a.attempts = List.length b.attempts
    && List.for_all2 same_attempt a.attempts b.attempts
    && (a.enumerated, a.checked, a.pruned, a.oracle_runs, a.oracle_states)
       = (b.enumerated, b.checked, b.pruned, b.oracle_runs, b.oracle_states)
  in
  let same_pass a b = List.for_all2 (fun (_, x) (_, y) -> same_result x y) a b in
  let certify results =
    List.iter
      (fun (t, (r : Synth.result)) ->
        match (t, r.synthesized) with
        | "lamport", s -> check "synth lamport uncertified" (s = None)
        | _, Some w ->
          check ("synth " ^ t ^ " = w_refined")
            (Graybox.Wrapper.equal w Graybox.Wrapper.w_refined)
        | _, None -> check ("synth " ^ t ^ " certified") false)
      results
  in
  let reference = same_as_first "synth transcript" in
  let last = ref None in
  let variant vname jobs =
    { vname;
      call =
        (fun _ ->
          let rs = pass jobs in
          fun () ->
            certify rs;
            reference same_pass rs;
            last := Some rs;
            float_of_int (List.length rs)) }
  in
  let layers ~secs ~rate:_ =
    let rs = Option.get !last in
    let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 rs in
    let checked = total (fun r -> r.Synth.checked) in
    let certified =
      total (fun r ->
          List.length
            (List.filter (fun a -> a.Synth.outcome = Synth.Certified) r.attempts))
    in
    seti "synth.enumerated" (total (fun r -> r.Synth.enumerated));
    seti "synth.checked" checked;
    seti "synth.pruned" (total (fun r -> r.Synth.pruned));
    seti "synth.oracle_runs" (total (fun r -> r.Synth.oracle_runs));
    seti "synth.oracle_states" (total (fun r -> r.Synth.oracle_states));
    set "synth.useful_ratio" (float_of_int certified /. float_of_int checked);
    set "synth.par_speedup" (secs "j1" /. secs "par");
    (* minor words per oracle state across one jobs=1 pass *)
    let _, minor, promoted =
      Probe.span "synth.pass.j1" (fun () -> words (fun () -> pass 1))
    in
    let states = float_of_int (total (fun r -> r.Synth.oracle_states)) in
    set "mcheck.minor_words_per_state" (minor /. states);
    set "mcheck.promoted_words_per_state" (promoted /. states);
    (* re-call the oracle on every checked attempt *)
    let d = Synth.config ~n:2 () in
    let calls =
      List.concat_map
        (fun (t, (r : Synth.result)) ->
          let proto = List.assoc t protos in
          List.filter_map
            (fun (a : Synth.attempt) ->
              match a.outcome with
              | Synth.Pruned_must_fire | Synth.Pruned_blamed -> None
              | expected ->
                let v, dt =
                  timed (fun () ->
                      Probe.span "mcheck.oracle.check" (fun () ->
                          Mcheck.Oracle.check proto ~n:d.n ~jobs:1
                            ~safety_depth:d.safety_depth
                            ~recovery_depth:d.recovery_depth
                            ~max_states:d.max_states a.term))
                in
                let stats, agrees =
                  match (v, expected) with
                  | Mcheck.Oracle.Safe st, Synth.Certified -> (st, true)
                  | Mcheck.Oracle.Cex cx, Synth.Refuted ob ->
                    (cx.stats, cx.obligation = ob)
                  | Mcheck.Oracle.Safe st, _ -> (st, false)
                  | Mcheck.Oracle.Cex cx, _ -> (cx.stats, false)
                in
                check "oracle verdict matches transcript" agrees;
                Some (dt, stats))
            r.attempts)
        rs
    in
    let stats = List.concat_map snd calls in
    let stat f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    let call_ms = List.map (fun (dt, _) -> dt *. 1000.) calls in
    check "oracle re-calls = checked" (List.length calls = checked);
    seti "mcheck.explored" (stat (fun s -> s.Mcheck.explored));
    seti "mcheck.visited" (stat (fun s -> s.Mcheck.visited));
    seti "mcheck.frontier_peak"
      (List.fold_left (fun acc s -> max acc s.Mcheck.frontier_peak) 0 stats);
    seti "mcheck.peak_mem_words"
      (List.fold_left (fun acc s -> max acc s.Mcheck.peak_mem_words) 0 stats);
    seti "mcheck.spill_bytes" (stat (fun s -> s.Mcheck.spill_bytes));
    set "oracle.call_ms.p50" (median call_ms);
    set "oracle.call_ms.tail" (tail_value call_ms);
    set "oracle.states_per_s"
      (float_of_int (stat (fun s -> s.Mcheck.explored)) /. (sum call_ms /. 1000.));
    set "synth.oracle_share" (sum call_ms /. (secs "j1" *. 1000.))
  in
  { setup = (fun () -> List.iter (fun jobs -> certify (pass jobs)) [ 1; nproc ]);
    call_span = "synth.pass";
    variants = [ variant "j1" 1; variant "par" nproc ];
    unit_of_work = "syntheses";
    layers }

let workloads =
  [ ("check-ra", check_ra);
    ("chaos-partition", chaos_partition);
    ("load-ra-1k", load_ra_1k);
    ("synth-cegis", synth_cegis) ]

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type sample = {
  variant : string;
  traced : bool;
  secs : float;
  work : float;
  gc : Probe.gc;  (** runtime activity during the call (traced calls) *)
}

(* Runs each variant once per round until [seconds] have passed (at
   least one round, two when traced); round k is the loop's k-th input,
   and every other input runs the variants in reverse order.  With
   [~trace], rounds alternate between untraced and traced, so that both
   halves see the same host conditions and inputs.  Each call starts
   from a fully collected heap.  The [aside] tasks run between rounds,
   spread evenly over the [seconds], so that they meet the host in the
   same phases as the timed calls; their time is added to the run's.
   Returns the samples and each round's (traced, wall seconds). *)
let loop ~seconds ~trace ~run ~span ~aside variants =
  let samples = ref [] and rounds = ref [] in
  let deadline = ref (Unix.gettimeofday () +. seconds) in
  let start = Unix.gettimeofday () in
  let pending = ref aside in
  let step = seconds /. float_of_int (max 1 (List.length aside)) in
  let run_aside () =
    match !pending with
    | [] -> ()
    | task :: rest ->
      pending := rest;
      let (), dt = timed task in
      deadline := !deadline +. dt
  in
  (* start another round only while it would end, on average, before
     the deadline: a run lasts [seconds], give or take half a round *)
  let mean_round () =
    sum (List.map snd !rounds) /. float_of_int (List.length !rounds)
  in
  let round = ref 0 in
  let min_rounds = if trace then 2 else 1 in
  while
    !round < min_rounds || Unix.gettimeofday () +. (mean_round () /. 2.) < !deadline
  do
    let due = start +. (step *. float_of_int (List.length aside - List.length !pending)) in
    if Unix.gettimeofday () >= due then run_aside ();
    let traced = trace && !round mod 2 = 1 in
    if traced then Probe.enable ~run:(Printf.sprintf "%s/round-%d" run !round)
    else Probe.disable ();
    (* a traced round repeats the input of the untraced round before it *)
    let input = if trace then !round / 2 else !round in
    let flip = input mod 2 = 1 in
    let wall = ref 0. in
    List.iter
      (fun v ->
        Gc.full_major ();
        let finish, secs =
          timed (fun () -> Probe.span (span ^ "." ^ v.vname) (fun () -> v.call input))
        in
        let gc = if traced then (Probe.last_span ()).gc else Probe.zero_gc in
        let work = finish () in
        wall := !wall +. secs;
        samples := { variant = v.vname; traced; secs; work; gc } :: !samples)
      (if flip then List.rev variants else variants);
    rounds := (traced, !wall) :: !rounds;
    incr round
  done;
  while !pending <> [] do run_aside () done;
  Probe.disable ();
  (List.rev !samples, List.rev !rounds)

let select ?(traced = false) samples v =
  List.filter (fun s -> s.variant = v && s.traced = traced) samples

let median_secs samples v = median (List.map (fun s -> s.secs) (select samples v))

(* Throughput over all of a variant's untraced calls: total work over
   total call time.  The host's speed moves between a fast and a slow
   phase, for a second up to a few minutes at a time.  A median over
   calls jumps between the two when a run spends about half its time in
   each, and the faster half or quarter of the calls keeps only the
   fast phase's calls when there are enough of them; this ratio moves
   only in proportion to the time spent in each, and it spread the
   least between runs. *)
let throughput xs =
  sum (List.map (fun s -> s.work) xs) /. sum (List.map (fun s -> s.secs) xs)

let rate samples v = throughput (select samples v)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--fresh VARIANT]\n\
   workloads: check-ra chaos-partition load-ra-1k synth-cegis"

let fresh_variant = ref None

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--fresh" :: v :: rest -> fresh_variant := Some v; go rest
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> prerr_endline usage; exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some secs, Some trace
    when List.mem_assoc w workloads && secs > 0. ->
    (w, seed, secs, trace)
  | _ -> prerr_endline usage; exit 2

let print_json metrics =
  let field i (name, unit) =
    Printf.sprintf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
      (if i = 0 then "" else ", ")
      name (Hashtbl.find values name) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat "" (List.mapi field metrics))

let fresh_processes = 4

(* In a fresh copy of this program: one cold set-up, then one full-size
   call of variant [v], checked.  The copy prints its set-up seconds
   and its peak resident set (MB) as its only output, and exits 0 when
   its checks held.  Returns (variant, set-up seconds, MB). *)
let fresh_process v =
  let args = Array.append Sys.argv [| "--fresh"; v |] in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  check ("fresh process " ^ v ^ " succeeded") (status = Unix.WEXITED 0);
  match Scanf.sscanf_opt out " %f %f" (fun s mb -> (s, mb)) with
  | Some (s, mb) -> (v, s, mb)
  | None -> (v, nan, nan)

let () =
  let name, seed, seconds, trace = parse_args () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir (Filename.concat out_dir "spill") 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let w = (List.assoc name workloads) ~seed in
  Option.iter
    (fun vname ->
      let (), secs = timed w.setup in
      match List.find_opt (fun v -> v.vname = vname) w.variants with
      | None -> exit 2
      | Some v ->
        Gc.full_major ();
        ignore (v.call 0 ());
        Printf.printf "%.9f %.3f\n" secs (peak_rss_mb ());
        exit (if !failed = 0 then 0 else 1))
    !fresh_variant;
  Printf.printf "workload %s, seed %d, %g s, trace %b, %d domains\n%!" name seed
    seconds trace nproc;
  let calib0 = calib_ms () in
  (* this process's own set-up, also cold, warms it for the timed loop *)
  let own = snd (timed w.setup) in
  let nv = List.length w.variants in
  let fresh = ref [] in
  let aside =
    List.init fresh_processes (fun i () ->
        fresh := fresh_process (List.nth w.variants (i mod nv)).vname :: !fresh)
  in
  let run = Printf.sprintf "%s/seed-%d" name seed in
  let samples, rounds = loop ~seconds ~trace ~run ~span:w.call_span ~aside w.variants in
  let fresh = List.rev !fresh in
  let setups = own :: List.map (fun (_, s, _) -> s) fresh in
  Printf.printf "cold set-ups (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.4f") setups));
  Printf.printf "fresh-process peak RSS (MB):%s\n"
    (String.concat "" (List.map (fun (v, _, mb) -> Printf.sprintf " %s %.1f" v mb) fresh));
  set "setup_s" (median setups);
  set "peak_rss_mb"
    (List.fold_left
       (fun acc v ->
         max acc
           (median
              (List.filter_map
                 (fun (v', _, mb) -> if v' = v.vname then Some mb else None)
                 fresh)))
       0. w.variants);
  List.iter
    (fun traced ->
      List.iter
        (fun v ->
          let xs = select ~traced samples v.vname in
          if xs <> [] then
            Printf.printf "%s %s: %d calls, median %.4f s, %.1f %s/s overall; calls (s):%s\n"
              (if traced then "traced" else "untraced")
              v.vname (List.length xs)
              (median (List.map (fun s -> s.secs) xs))
              (throughput xs)
              w.unit_of_work
              (String.concat "" (List.map (fun s -> Printf.sprintf " %.4f" s.secs) xs)))
        w.variants)
    [ false; true ];
  (* a workload without a par variant runs on one domain whatever the
     jobs count, so its par figures are its j1 figures *)
  let par = if List.exists (fun v -> v.vname = "par") w.variants then "par" else "j1" in
  if not trace then begin
    set "rate.j1" (rate samples "j1");
    set "rate.par" (rate samples par)
  end
  else begin
    let wall traced =
      median (List.filter_map (fun (t, s) -> if t = traced then Some s else None) rounds)
    in
    set "trace.overhead" (wall true /. wall false);
    let gc_median v f =
      median (List.map (fun s -> f s.gc) (select ~traced:true samples v))
    in
    let ms ns = Probe.ns_to_ms ns in
    set "runtime.domain_spawns" (gc_median par (fun g -> float_of_int g.spawns));
    set "runtime.minor_gcs" (gc_median par (fun g -> float_of_int g.minor_gcs));
    set "runtime.major_slices"
      (gc_median par (fun g -> float_of_int g.major_slices));
    set "runtime.gc_ms" (gc_median par (fun g -> ms g.gc_ns));
    set "runtime.stw_ms" (gc_median par (fun g -> ms g.stw_ns));
    set "runtime.gc_ms.j1" (gc_median "j1" (fun g -> ms g.gc_ns));
    set "runtime.stw_ms.j1" (gc_median "j1" (fun g -> ms g.stw_ns));
    Probe.enable ~run:(run ^ "/layers");
    w.layers ~secs:(median_secs samples) ~rate:(rate samples);
    let items = List.init nproc Fun.id in
    let pool_us =
      List.init 200 (fun _ ->
          snd
            (timed (fun () ->
                 Probe.span "stdext.pool.map" (fun () ->
                     Stdext.Pool.map ~jobs:nproc Fun.id items)))
          *. 1e6)
    in
    set "pool.map_us.p50" (median pool_us);
    set "pool.map_us.tail" (tail_value pool_us);
    Probe.disable ();
    let lost = (Probe.gc_now ()).lost in
    seti "runtime.lost_events" lost;
    check "no runtime events lost" (lost = 0);
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" name seed)
    in
    Probe.write_spans path;
    Printf.printf "spans written to %s\n" path
  end;
  let calib1 = calib_ms () in
  Printf.printf "host calibration loop: %.2f ms at start, %.2f ms at end\n"
    calib0 calib1;
  set "host.calib_ms" ((calib0 +. calib1) /. 2.);
  let metrics = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt values name with
      | None ->
        if name <> "bench.failed_ratio" then
          Printf.printf "  %-34s 0 %s (layer not exercised)\n" name unit;
        set name 0.
      | Some v ->
        Printf.printf "  %-34s %.6g %s\n" name v unit;
        (* JSON has no nan or infinity: a metric that could not be
           computed fails its check and reads 0 *)
        check (name ^ " is finite") (Float.is_finite v);
        if not (Float.is_finite v) then set name 0.)
    metrics;
  let failed_ratio = float_of_int !failed /. float_of_int !attempted in
  set "bench.failed_ratio" failed_ratio;
  Printf.printf "checks: %d attempted, %d failed (failed_ratio %g)\n%!"
    !attempted !failed failed_ratio;
  print_json metrics
