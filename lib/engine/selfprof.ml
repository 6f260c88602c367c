(* One profiler, two clocks: *virtual* time per simulated host and *wall*
   time and allocation per event kind, over one frame taxonomy fed by one
   push/pop site, so every virtual-time flame has a wall-time twin and
   "where do the microseconds go" can be asked of the network and of the
   engine itself (the paper's Table 2 method, turned inward).

   Virtual clock. Layers push/pop named frames around the regions that
   spend virtual time, and the places that actually account that time —
   [Host.Cpu.charge_raw], the NI submit sites — report it with [charge]
   at the moment it is charged, *before* the implied [Proc.sleep].
   Attributing at the charge site rather than measuring elapsed time
   between push and pop is what keeps the numbers honest in a
   discrete-event world: while one process sleeps through its charge,
   other processes (other hosts, the NI, timers) run, and their time must
   not leak into the sleeping frame.

   Virtual frames are keyed per host. Two processes on the same host can
   interleave pushes and pops across sleeps, in which case a pop may
   structurally remove the other process's frame; the stacks stay
   balanced and the total time conserved, but a charge landing in that
   window is attributed to the unioned path. This is rare (it needs two
   runnable processes on one simulated CPU) and bounded, and it is the
   price of not threading a profiler context through every layer;
   DESIGN.md §12 discusses it. Each host gets a synthetic root frame
   [host<N>] whose exclusive time is the run's elapsed virtual time minus
   everything attributed beneath it, so the root's *inclusive* time
   equals elapsed virtual time by construction and idle time is visible
   rather than hidden.

   Wall clock. All wall charges are deltas of a monotonic clock and of
   [Gc.counters], taken at every *transition* — frame push/pop and event
   dispatch begin/end (fed by [Sim.step]). Each delta is charged exactly
   once, to the node that was on top of the wall stack when the interval
   ran, so wall time and allocation words are never double-counted
   across nested frames and the root's inclusive totals equal the
   measured elapsed totals by construction.

   The wall tree has a single root, [engine]. Its depth-1 children are
   event kinds — the static [~label] given to [Sim.schedule] at the
   scheduling site ([ev:<label>], [ev:event] for unlabeled events) — and
   frames entered outside any event (code run between simulations). Frames
   pushed while an event executes nest under that event's kind node.
   Time between events (heap pops, tombstone skips, the timeseries
   sampler) is the root's exclusive time: the event loop's own overhead,
   visible rather than smeared over whichever frame fired last.

   Frames that stay open across a sleep are charged wall time only while
   their code actually executes: an event window starts with an empty
   wall stack and force-rewinds whatever is still open when the thunk
   returns, so a sleeping process's frame cannot absorb the wall time of
   the processes that run while it sleeps. The matching pop, arriving in
   a later event, leaves the wall stack alone.

   The module also owns the bounded histograms behind the event-queue
   introspection ([Sim] reports per-pop heap costs and same-timestamp
   batch sizes here when enabled) — the data needed to choose between a
   calendar queue and a pairing heap.

   The folded ("collapsed-stack") output is the flamegraph.pl /
   speedscope interchange format: one line per stack, semicolon-separated
   frames, a space, and the exclusive value in that stack.

   Like the other telemetry registries this is process-global, off by
   default, and costs one boolean test per call when disabled, so runs
   with it off are byte-identical to runs without it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type node = {
  n_name : string;
  n_children : (string, node) Hashtbl.t;
  mutable n_order : string list; (* creation order, reversed *)
  mutable n_virt : int; (* exclusive virtual ns charged right here *)
  mutable n_wall : int; (* exclusive wall ns *)
  mutable n_minor : float; (* exclusive minor words *)
  mutable n_promoted : float;
  mutable n_major : float;
}

let mk_node name =
  {
    n_name = name;
    n_children = Hashtbl.create 4;
    n_order = [];
    n_virt = 0;
    n_wall = 0;
    n_minor = 0.;
    n_promoted = 0.;
    n_major = 0.;
  }

type stacks = (string list * int) list

type host_state = {
  h_root : node;
  mutable h_stack : node list; (* innermost frame first; [] = at root *)
}

(* per-event-kind summary, accumulated at event end *)
type kind_summary = {
  mutable k_events : int;
  mutable k_wall_ns : int;
  mutable k_minor_words : float;
  mutable k_major_words : float;
}

let enabled_flag = ref false
let frozen : (int * int) option ref = ref None (* virtual, wall at stop *)

(* virtual clock: per-host trees *)
let clock : (unit -> int) ref = ref (fun () -> 0)
let v_start = ref 0
let hosts_tbl : (int, host_state) Hashtbl.t = Hashtbl.create 8
let host_order : int list ref = ref []
let underflows = ref 0

(* wall clock: one tree, event-windowed stack *)
let root = ref (mk_node "engine")
let stack : node list ref = ref []
let saved : node list ref = ref [] (* the stack outside the event *)
let event_depth = ref 0
let cur_kind : kind_summary option ref = ref None
let ev_wall0 = ref 0
let ev_minor0 = ref 0.
let ev_major0 = ref 0.
let t_start = ref 0
let last_wall = ref 0
let last_minor = ref 0.
let last_promoted = ref 0.
let last_major = ref 0.
let dangling_frames = ref 0
let kinds : (string, kind_summary) Hashtbl.t = Hashtbl.create 16
let kind_order : string list ref = ref []

(* bounded histograms for the queue introspection: index = value clamped
   to the last bucket, so memory is constant no matter how hot the run *)
let hist_buckets = 64
let pop_cost = Array.make hist_buckets 0
let pop_cost_sum = ref 0
let pop_cost_count = ref 0
let batch_size = Array.make hist_buckets 0
let batch_size_sum = ref 0
let batch_size_count = ref 0

let enabled () = !enabled_flag
let attach_clock f = clock := f

let child parent name =
  match Hashtbl.find_opt parent.n_children name with
  | Some n -> n
  | None ->
      let n = mk_node name in
      Hashtbl.replace parent.n_children name n;
      parent.n_order <- name :: parent.n_order;
      n

let top () = match !stack with n :: _ -> n | [] -> !root

(* Charge the interval since the previous transition to the frame that
   was executing through it, then restamp. Every wall ns and every
   allocated word lands in exactly one node. *)
let stamp () =
  let now = now_ns () in
  let minor, promoted, major = Gc.counters () in
  let n = top () in
  n.n_wall <- n.n_wall + (now - !last_wall);
  n.n_minor <- n.n_minor +. (minor -. !last_minor);
  n.n_promoted <- n.n_promoted +. (promoted -. !last_promoted);
  n.n_major <- n.n_major +. (major -. !last_major);
  last_wall := now;
  last_minor := minor;
  last_promoted := promoted;
  last_major := major

let clear () =
  frozen := None;
  Hashtbl.reset hosts_tbl;
  host_order := [];
  underflows := 0;
  v_start := !clock ();
  root := mk_node "engine";
  stack := [];
  saved := [];
  event_depth := 0;
  cur_kind := None;
  dangling_frames := 0;
  Hashtbl.reset kinds;
  kind_order := [];
  Array.fill pop_cost 0 hist_buckets 0;
  pop_cost_sum := 0;
  pop_cost_count := 0;
  Array.fill batch_size 0 hist_buckets 0;
  batch_size_sum := 0;
  batch_size_count := 0;
  let minor, promoted, major = Gc.counters () in
  last_wall := now_ns ();
  last_minor := minor;
  last_promoted := promoted;
  last_major := major;
  t_start := !last_wall

let start () =
  clear ();
  enabled_flag := true

let elapsed () =
  match !frozen with
  | Some (v, _) -> v
  | None -> if !enabled_flag then !clock () - !v_start else 0

let elapsed_wall_ns () =
  match !frozen with
  | Some (_, w) -> w
  | None -> if !enabled_flag then now_ns () - !t_start else 0

(* Inclusive value of a subtree: its own exclusive value plus everything
   below it. *)
let rec inclusive value n =
  Hashtbl.fold (fun _ c acc -> acc + inclusive value c) n.n_children (value n)

let virt n = n.n_virt
let wall n = n.n_wall
let alloc_words n = int_of_float (n.n_minor +. n.n_major -. n.n_promoted)

(* At stop, fold per-layer totals into the metrics registry so an
   ordinary --metrics dump carries the wall and allocation story. The
   root's own exclusive share is the event loop, reported as
   layer="engine". *)
let fold_metrics () =
  let emit layer ns words =
    Metrics.Counter.add
      (Metrics.counter ~help:"wall-clock ns attributed by the self-profiler"
         "selfprof_wall_ns_total"
         [ ("layer", layer) ])
      ns;
    Metrics.Counter.add
      (Metrics.counter
         ~help:"GC words allocated, attributed by the self-profiler"
         "selfprof_alloc_words_total"
         [ ("layer", layer) ])
      words
  in
  emit !root.n_name !root.n_wall (alloc_words !root);
  List.iter
    (fun name ->
      let c = Hashtbl.find !root.n_children name in
      emit name (inclusive wall c) (inclusive alloc_words c))
    (List.rev !root.n_order)

let stop () =
  if !enabled_flag then begin
    stamp ();
    frozen := Some (!clock () - !v_start, !last_wall - !t_start);
    enabled_flag := false;
    fold_metrics ()
  end

(* --- frames ----------------------------------------------------------- *)

let host_state host =
  match Hashtbl.find_opt hosts_tbl host with
  | Some h -> h
  | None ->
      let h =
        { h_root = mk_node (Printf.sprintf "host%d" host); h_stack = [] }
      in
      Hashtbl.replace hosts_tbl host h;
      host_order := host :: !host_order;
      h

let host_top h = match h.h_stack with n :: _ -> n | [] -> h.h_root

(* One transition for both clocks: the wall interval up to here goes to
   the frame that ran through it, then both stacks move. *)
let push ?(host = 0) name =
  if !enabled_flag then begin
    stamp ();
    stack := child (top ()) name :: !stack;
    let h = host_state host in
    h.h_stack <- child (host_top h) name :: h.h_stack
  end

(* A pop with no wall frame open in the current event window is the
   matching pop of a frame that slept across events: the window already
   rewound it. A pop on an empty virtual stack is a real imbalance. *)
let pop ?(host = 0) () =
  if !enabled_flag then begin
    stamp ();
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    let h = host_state host in
    match h.h_stack with
    | _ :: rest -> h.h_stack <- rest
    | [] -> incr underflows
  end

let charge_from n frames ns =
  let n = List.fold_left child n frames in
  n.n_virt <- n.n_virt + ns

let charge ?(host = 0) ?(frames = []) ns =
  if !enabled_flag && ns > 0 then
    charge_from (host_top (host_state host)) frames ns

let charge_root ?(host = 0) ~frames ns =
  if !enabled_flag && ns > 0 then charge_from (host_state host).h_root frames ns

let depth ~host =
  match Hashtbl.find_opt hosts_tbl host with
  | None -> 0
  | Some h -> List.length h.h_stack

let unmatched_pops () = !underflows
let hosts () = List.rev !host_order

(* --- event windows (driven by Sim.step) ------------------------------- *)

let kind_summary label =
  match Hashtbl.find_opt kinds label with
  | Some k -> k
  | None ->
      let k =
        { k_events = 0; k_wall_ns = 0; k_minor_words = 0.; k_major_words = 0. }
      in
      Hashtbl.replace kinds label k;
      kind_order := label :: !kind_order;
      k

let event_begin ~label =
  if !enabled_flag then begin
    incr event_depth;
    if !event_depth = 1 then begin
      stamp ();
      let label = if label = "" then "event" else label in
      saved := !stack;
      stack := [ child !root ("ev:" ^ label) ];
      cur_kind := Some (kind_summary label);
      ev_wall0 := !last_wall;
      ev_minor0 := !last_minor;
      ev_major0 := !last_major
    end
  end

let event_end () =
  if !enabled_flag && !event_depth > 0 then begin
    if !event_depth = 1 then begin
      stamp ();
      (* frames left open by a process that went to sleep: rewind them;
         their wall time stays where it was actually spent *)
      (match !stack with
      | [ _ ] | [] -> ()
      | l -> dangling_frames := !dangling_frames + List.length l - 1);
      stack := !saved;
      (match !cur_kind with
      | Some k ->
          k.k_events <- k.k_events + 1;
          k.k_wall_ns <- k.k_wall_ns + (!last_wall - !ev_wall0);
          k.k_minor_words <- k.k_minor_words +. (!last_minor -. !ev_minor0);
          k.k_major_words <- k.k_major_words +. (!last_major -. !ev_major0)
      | None -> ());
      cur_kind := None
    end;
    decr event_depth
  end

let dangling () = !dangling_frames

(* --- queue histograms (reported by Sim when enabled) ------------------ *)

let observe_pop_cost c =
  let c = max 0 c in
  pop_cost.(min c (hist_buckets - 1)) <- pop_cost.(min c (hist_buckets - 1)) + 1;
  pop_cost_sum := !pop_cost_sum + c;
  incr pop_cost_count

let observe_batch n =
  if n > 0 then begin
    batch_size.(min n (hist_buckets - 1)) <-
      batch_size.(min n (hist_buckets - 1)) + 1;
    batch_size_sum := !batch_size_sum + n;
    incr batch_size_count
  end

let buckets_of a =
  let out = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if a.(i) > 0 then out := (i, a.(i)) :: !out
  done;
  !out

let pop_cost_hist () = buckets_of pop_cost

let pop_cost_mean () =
  if !pop_cost_count = 0 then 0.
  else float_of_int !pop_cost_sum /. float_of_int !pop_cost_count

let batch_size_hist () = buckets_of batch_size

let batch_size_mean () =
  if !batch_size_count = 0 then 0.
  else float_of_int !batch_size_sum /. float_of_int !batch_size_count

(* --- dumps ------------------------------------------------------------ *)

(* Every stack under [root] with its exclusive [value], children in
   creation order. [residual] is added to the root's own value and the
   root line is always listed, so the root's inclusive total is what the
   caller says it must be (elapsed time, clamped at 0 in case concurrent
   same-host charges ever overlap past 100% utilization). *)
let walk value root residual =
  let acc = ref [] in
  let rec go path n extra =
    let path = path @ [ n.n_name ] in
    let self = value n + extra in
    if self > 0 || path = [ n.n_name ] then acc := (path, self) :: !acc;
    List.iter
      (fun name -> go path (Hashtbl.find n.n_children name) 0)
      (List.rev n.n_order)
  in
  go [] root residual;
  List.rev !acc

let residual value root elapsed = max 0 (elapsed - inclusive value root)

let virtual_stacks () =
  let el = elapsed () in
  List.concat_map
    (fun host ->
      let r = (Hashtbl.find hosts_tbl host).h_root in
      walk virt r (residual virt r el))
    (hosts ())

(* Any wall time not yet charged (only possible while still enabled)
   shows as root-exclusive, so the root's inclusive time tracks elapsed
   wall time whether or not [stop] has run. *)
let stacks () = walk wall !root (residual wall !root (elapsed_wall_ns ()))
let alloc_stacks () = walk alloc_words !root 0

let folded stacks =
  let b = Buffer.create 4096 in
  List.iter
    (fun (path, self) ->
      if self > 0 then begin
        Buffer.add_string b (String.concat ";" path);
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int self);
        Buffer.add_char b '\n'
      end)
    stacks;
  Buffer.contents b

let write_folded path stacks =
  let oc = open_out path in
  output_string oc (folded stacks);
  close_out oc

let kind_summaries () =
  List.rev_map
    (fun label ->
      let k = Hashtbl.find kinds label in
      (label, k.k_events, k.k_wall_ns, k.k_minor_words +. k.k_major_words))
    !kind_order

let pp_summary ppf () =
  let total_ev = Hashtbl.fold (fun _ k acc -> acc + k.k_events) kinds 0 in
  Format.fprintf ppf
    "self-profile: %d events dispatched over %.3f ms wall@." total_ev
    (float_of_int (elapsed_wall_ns ()) /. 1e6);
  Format.fprintf ppf "  %-24s %10s %12s %12s %14s@." "event kind" "events"
    "us/event" "words/event" "wall total ms";
  List.iter
    (fun (label, events, wall, words) ->
      if events > 0 then
        Format.fprintf ppf "  %-24s %10d %12.3f %12.1f %14.3f@." label events
          (float_of_int wall /. 1e3 /. float_of_int events)
          (words /. float_of_int events)
          (float_of_int wall /. 1e6))
    (kind_summaries ());
  if !pop_cost_count > 0 then
    Format.fprintf ppf
      "  queue: mean pop cost %.2f heap ops, mean same-timestamp batch %.2f@."
      (pop_cost_mean ()) (batch_size_mean ())
