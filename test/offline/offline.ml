(* Whole-trace reference models for the monitors the library runs as
   folds.  Each definition here reads a recorded trace as a whole (often
   backwards), the way the specification states it; the library keeps
   only the incremental versions, and the test suites assert that the
   two agree.  Nothing in the library depends on this module. *)

open Unityspec
open Temporal

(* ------------------------------------------------------------------ *)
(* UNITY operators over a finite trace                                 *)

let describe name fallback =
  match name with Some n -> n | None -> fallback

let invariant ?name p tr =
  let rec go i = function
    | [] -> Holds
    | s :: rest ->
      if p s then go (i + 1) rest
      else
        Violated { at = i; reason = describe name "invariant" ^ " fails" }
  in
  go 0 tr

let step_invariant ?name r tr =
  let rec go i = function
    | a :: (b :: _ as rest) ->
      if r a b then go (i + 1) rest
      else
        Violated
          { at = i + 1; reason = describe name "step-invariant" ^ " fails" }
    | [] | [ _ ] -> Holds
  in
  go 0 tr

let unless ?name ~p ~q tr =
  let label = describe name "unless" in
  let r a b = (not (p a && not (q a))) || p b || q b in
  match step_invariant r tr with
  | Violated { at; _ } -> Violated { at; reason = label ^ " fails" }
  | v -> v

let stable ?name p tr =
  let label = describe name "stable" in
  match unless ~p ~q:(fun _ -> false) tr with
  | Violated { at; _ } -> Violated { at; reason = label ^ " fails" }
  | v -> v

let leads_to ?name ~p ~q tr =
  ignore name;
  (* Walk backwards: remember the nearest later-or-equal q-point. *)
  let arr = Array.of_list tr in
  let n = Array.length arr in
  let pending = ref [] in
  let q_ahead = ref false in
  for i = n - 1 downto 0 do
    if q arr.(i) then q_ahead := true;
    if p arr.(i) && not !q_ahead then pending := i :: !pending
  done;
  if !pending = [] then Holds else Pending { obligations = !pending }

let leads_to_always ?name ~p ~q tr =
  let label = describe name "leads-to-always" in
  match stable ~name:(label ^ " (stability of target)") q tr with
  | Violated _ as v -> v
  | _ -> leads_to ?name ~p ~q tr

let forall f n = all (List.init n f)

let forall_pairs f n =
  let pairs =
    List.concat_map
      (fun j -> List.filter_map (fun k -> if j <> k then Some (j, k) else None)
                  (List.init n Fun.id))
      (List.init n Fun.id)
  in
  all (List.map (fun (j, k) -> f j k) pairs)

(* ------------------------------------------------------------------ *)
(* Stabilization analysis                                              *)

open Graybox

type vtrace = (View.t, Msg.t) Sim.Trace.t

(* For process [j], mark every index [i] at which j's pending interval
   (hungry awaiting service, or eating awaiting release) is known to
   resolve correctly: hungry intervals must end in Eating, eating
   intervals in Thinking.  Intervals cut off by the end of the trace
   are acceptable only within [tail_margin]. *)
let resolution_ok modes ~len ~tail_margin j =
  let ok = Array.make len true in
  let interval_start = ref None in
  let mark a b value =
    for i = a to b do
      if not value then ok.(i) <- false
    done
  in
  let close_interval endpoint current_end =
    match !interval_start with
    | None -> ()
    | Some (start, kind) ->
      let resolved =
        match endpoint with
        | Some next_mode ->
          (match kind with
           | View.Hungry -> next_mode = View.Eating
           | View.Eating -> next_mode = View.Thinking
           | View.Thinking -> true)
        | None ->
          (* trace ended mid-interval *)
          current_end - start < tail_margin
      in
      mark start current_end resolved;
      interval_start := None
  in
  for i = 0 to len - 1 do
    let m = modes i j in
    (match !interval_start with
     | Some (_, kind) when kind = m -> ()
     | Some _ ->
       close_interval (Some m) (i - 1);
       if m = View.Hungry || m = View.Eating then interval_start := Some (i, m)
     | None ->
       if m = View.Hungry || m = View.Eating then interval_start := Some (i, m))
  done;
  close_interval None (len - 1);
  ok

let analyse ?(tail_margin = 300) (tr : vtrace) : Stabilize.analysis =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 then
    { Stabilize.trace_len = 0;
      last_fault_index = None;
      converged_index = None;
      recovery_steps = None;
      me1_violations = 0;
      starving = [];
      recovered = false }
  else begin
    let n = Array.length snaps.(0).Sim.Trace.states in
    let modes i j = snaps.(i).Sim.Trace.states.(j).View.mode in
    let me1_ok i =
      let eaters = ref 0 in
      Array.iter
        (fun v -> if View.eating v then incr eaters)
        snaps.(i).Sim.Trace.states;
      !eaters <= 1
    in
    let last_fault_index =
      let found = ref None in
      Array.iteri
        (fun i snap ->
          match snap.Sim.Trace.event with
          | Sim.Trace.Fault _ -> found := Some i
          | _ -> ())
        snaps;
      !found
    in
    let per_proc =
      Array.init n (fun j -> resolution_ok modes ~len ~tail_margin j)
    in
    (* good.(i): the criteria hold at snapshot i *)
    let good i =
      me1_ok i
      &&
      let rec all j = j >= n || (per_proc.(j).(i) && all (j + 1)) in
      all 0
    in
    (* converged_index: earliest i with good holding on [i, len). *)
    let converged_index =
      let idx = ref None in
      (try
         for i = len - 1 downto 0 do
           if good i then idx := Some i else raise Exit
         done
       with Exit -> ());
      !idx
    in
    let base = match last_fault_index with Some f -> f | None -> 0 in
    let converged_index =
      match converged_index with
      | Some i -> Some (max i base)
      | None -> None
    in
    let recovery_steps =
      match converged_index with
      | None -> None
      | Some i ->
        Some (snaps.(i).Sim.Trace.time - snaps.(base).Sim.Trace.time)
    in
    let me1_violations =
      let count = ref 0 in
      for i = base to len - 1 do
        if not (me1_ok i) then incr count
      done;
      !count
    in
    let starving =
      List.filter
        (fun j ->
          let rec hungry_run i acc =
            if i < 0 || modes i j <> View.Hungry then acc
            else hungry_run (i - 1) (acc + 1)
          in
          hungry_run (len - 1) 0 >= tail_margin)
        (Sim.Pid.range n)
    in
    { trace_len = len;
      last_fault_index;
      converged_index;
      recovery_steps;
      me1_violations;
      starving;
      recovered = converged_index <> None }
  end

let service_round_latency (tr : vtrace) ~after =
  let snaps = Array.of_list tr in
  let len = Array.length snaps in
  if len = 0 || after >= len then None
  else begin
    let n = Array.length snaps.(0).Sim.Trace.states in
    let served = Array.make n false in
    let remaining = ref n in
    let answer = ref None in
    (try
       for i = max 1 (after + 1) to len - 1 do
         for j = 0 to n - 1 do
           if
             (not served.(j))
             && (not (View.eating snaps.(i - 1).Sim.Trace.states.(j)))
             && View.eating snaps.(i).Sim.Trace.states.(j)
           then begin
             served.(j) <- true;
             decr remaining;
             if !remaining = 0 then begin
               answer :=
                 Some
                   (snaps.(i).Sim.Trace.time - snaps.(after).Sim.Trace.time);
               raise Exit
             end
           end
         done
       done
     with Exit -> ());
    !answer
  end

(* ------------------------------------------------------------------ *)
(* TME_Spec                                                            *)

let eaters (snap : (View.t, Msg.t) Sim.Trace.snapshot) =
  Array.fold_left
    (fun acc v -> if View.eating v then acc + 1 else acc)
    0 snap.states

let me1 tr =
  invariant ~name:"ME1" (fun snap -> eaters snap <= 1) tr

let me1_violations tr =
  List.fold_left (fun acc snap -> if eaters snap > 1 then acc + 1 else acc) 0 tr

let me2 ~n tr =
  forall
    (fun j ->
      leads_to ~name:(Printf.sprintf "ME2.%d" j)
        ~p:(fun snap -> View.hungry snap.Sim.Trace.states.(j))
        ~q:(fun snap -> View.eating snap.Sim.Trace.states.(j))
        tr)
    n

let me3 entries =
  (* Entries are in trace order; an entry whose request causally
     preceded an *earlier* entry's request violates FCFS. *)
  let rec scan idx earlier = function
    | [] -> Holds
    | (e : Harness.entry_record) :: rest ->
      let bad =
        List.exists
          (fun (prev : Harness.entry_record) ->
            Clocks.Vector_clock.lt e.entry_req_vc prev.entry_req_vc)
          earlier
      in
      if bad then
        Violated
          { at = idx;
            reason =
              Printf.sprintf
                "entry %d by process %d served a request that \
                 happened-before an already-served one"
                idx e.entry_pid }
      else scan (idx + 1) (e :: earlier) rest
  in
  scan 0 [] entries

let check_all ~n ~entries tr =
  Tme_spec.report_of_verdicts ~me1:(me1 tr) ~me2:(me2 ~n tr) ~me3:(me3 entries)
