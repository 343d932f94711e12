(* Tracing for the benchmark's traced run.

   Spans are recorded by the benchmark itself around each call it makes
   into a layer of the repository (name, start, end, parent, run id);
   they stay in memory and are written out once, at the end.  A
   Runtime_events consumer over this process's own ring buffers
   attributes minor collections, major slices, stop-the-world sections
   and domain spawns to the spans they fall in.  When tracing is off,
   [span] costs one branch and the runtime ring is never started. *)

let now_ns () = Monotonic_clock.now ()
let ns_to_ms ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Runtime events                                                      *)

type gc = {
  minor_gcs : int;  (** EV_MINOR sections, summed over domains *)
  major_slices : int;  (** EV_MAJOR_SLICE sections, summed over domains *)
  gc_ns : int64;  (** time in EV_MINOR and EV_MAJOR_SLICE, summed over domains *)
  stw_ns : int64;
      (** time in EV_STW_LEADER and EV_STW_HANDLER (stop-the-world
          sections, which hold the minor collections), summed over
          domains *)
  spawns : int;  (** EV_DOMAIN_SPAWN lifecycle events *)
  lost : int;  (** events overwritten before this consumer read them *)
}

let zero_gc =
  { minor_gcs = 0; major_slices = 0; gc_ns = 0L; stw_ns = 0L; spawns = 0;
    lost = 0 }

let gc_diff a b =
  { minor_gcs = a.minor_gcs - b.minor_gcs;
    major_slices = a.major_slices - b.major_slices;
    gc_ns = Int64.sub a.gc_ns b.gc_ns;
    stw_ns = Int64.sub a.stw_ns b.stw_ns;
    spawns = a.spawns - b.spawns;
    lost = a.lost - b.lost }

let totals = ref zero_gc

(* Open sections by (ring, phase): rings are per-domain and each ring's
   events arrive in order, so one slot per pair is enough. *)
let open_sections : (int * Runtime_events.runtime_phase, int64) Hashtbl.t =
  Hashtbl.create 16

let on_begin ring ts phase =
  let t = !totals in
  (match phase with
   | Runtime_events.EV_MINOR -> totals := { t with minor_gcs = t.minor_gcs + 1 }
   | EV_MAJOR_SLICE -> totals := { t with major_slices = t.major_slices + 1 }
   | _ -> ());
  match phase with
  | EV_MINOR | EV_MAJOR_SLICE | EV_STW_LEADER | EV_STW_HANDLER ->
    Hashtbl.replace open_sections (ring, phase)
      (Runtime_events.Timestamp.to_int64 ts)
  | _ -> ()

let on_end ring ts phase =
  match Hashtbl.find_opt open_sections (ring, phase) with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove open_sections (ring, phase);
    let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0 in
    let t = !totals in
    totals :=
      (match phase with
       | EV_STW_LEADER | EV_STW_HANDLER -> { t with stw_ns = Int64.add t.stw_ns d }
       | _ -> { t with gc_ns = Int64.add t.gc_ns d })

let callbacks =
  Runtime_events.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
    ~lifecycle:(fun _ _ ev _ ->
      if ev = Runtime_events.EV_DOMAIN_SPAWN then
        totals := { !totals with spawns = !totals.spawns + 1 })
    ~lost_events:(fun _ n -> totals := { !totals with lost = !totals.lost + n })
    ()

let cursor = ref None

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)

(** The runtime counters so far (after draining the rings). *)
let gc_now () =
  poll ();
  !totals

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  run : string;
  t0 : int64;
  mutable t1 : int64;
  mutable child_ns : int64;
  mutable gc : gc;  (** runtime activity inside the span *)
}

let on = ref false
let run_id = ref ""
let next_id = ref 0
let stack : span list ref = ref []
let finished : span list ref = ref []

(** [span name f] runs [f ()]; while tracing is on it records a span
    named [name] under the innermost open span.  The runtime rings are
    drained outside the span's clock readings. *)
let span name f =
  if not !on then f ()
  else begin
    let g0 = gc_now () in
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; parent; name; run = !run_id; t0 = now_ns (); t1 = 0L;
        child_ns = 0L; gc = zero_gc }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now_ns ();
      stack := List.tl !stack;
      (match !stack with
       | p :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.t1 s.t0)
       | [] -> ());
      s.gc <- gc_diff (gc_now ()) g0;
      finished := s :: !finished
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(** [untraced f] runs [f ()] with span recording off. *)
let untraced f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

let last_span () =
  match !finished with s :: _ -> s | [] -> invalid_arg "Probe.last_span"

let duration_ms s = ns_to_ms (Int64.sub s.t1 s.t0)
let self_ms s = ns_to_ms (Int64.sub (Int64.sub s.t1 s.t0) s.child_ns)

(** Turn tracing on: start (or resume) the runtime ring and record spans. *)
let enable ~run =
  run_id := run;
  (match !cursor with
   | None ->
     Runtime_events.start ();
     cursor := Some (Runtime_events.create_cursor None)
   | Some _ -> Runtime_events.resume ());
  ignore (gc_now ());
  on := true

let disable () =
  on := false;
  if !cursor <> None then begin
    poll ();
    Runtime_events.pause ()
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(** Writes every recorded span as JSON, plus a per-name summary of
    count, total and self time.  Times are in milliseconds from the
    first span's start. *)
let write_spans path =
  let spans = List.rev !finished in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let oc = open_out path in
  let ms ns = Printf.sprintf "%.6f" (ns_to_ms ns) in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"run\": %S, \
         \"start_ms\": %s, \"end_ms\": %s, \"self_ms\": %.6f, \
         \"minor_gcs\": %d, \"major_slices\": %d, \"gc_ms\": %s, \
         \"stw_ms\": %s, \"domain_spawns\": %d}\n"
        (if i = 0 then "  " else ", ")
        s.id s.parent s.name s.run
        (ms (Int64.sub s.t0 origin))
        (ms (Int64.sub s.t1 origin))
        (self_ms s) s.gc.minor_gcs s.gc.major_slices (ms s.gc.gc_ns)
        (ms s.gc.stw_ns) s.gc.spawns)
    spans;
  output_string oc "], \"summary\": [\n";
  let names = List.sort_uniq compare (List.map (fun s -> s.name) spans) in
  List.iteri
    (fun i name ->
      let mine = List.filter (fun s -> s.name = name) spans in
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0. mine in
      Printf.fprintf oc
        "%s{\"name\": %S, \"count\": %d, \"total_ms\": %.6f, \"self_ms\": %.6f}\n"
        (if i = 0 then "  " else ", ")
        name (List.length mine) (sum duration_ms) (sum self_ms))
    names;
  output_string oc "]}\n";
  close_out oc
