(* perfbench: host time, allocation and memory per simulated PDU.

   main.exe --workload W --seed N --seconds S --trace 0|1
            [--fault SPEC] [--spans-out FILE]

   Every repetition runs in a child process forked from a coordinator
   that holds only the inputs, so each one pays what a fresh [unetsim]
   process pays (heap growth included), its heap high-water is its own,
   and whatever the library leaks dies with it instead of slowing and
   swelling the repetitions after it.

   Each repetition draws its own inputs from the seed and its index.
   --trace 0 measures the end-to-end metrics with tracing off: pairs of a
   fast-path repetition and the per-cell oracle on the same inputs, for
   S seconds, with the fast path's host times scaled to a nominal host.
   --trace 1 interleaves plain, traced, per-cell and observer-toggled
   repetitions on shared inputs for S seconds and
   reports the per-layer metrics, then one per-cell pass under Selfprof.

   Every repetition is verified: payload bytes, the cell ledger, and its
   simulated outputs against the per-cell oracle of the same inputs. The
   last line of standard output is one JSON object. *)

open Perfbench
open Engine

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 [--fault SPEC] \
   [--spans-out FILE]"

let fi = float_of_int
let per x n = if n = 0 then 0. else x /. fi n

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. fi n)) - 1 in
  if n = 0 then 0. else a.(max 0 (min (n - 1) rank))

(* Timed repetitions per --trace 0 run, at least. A fabric repetition and
   its oracle take about 10 s, so a fabric run shorter than a minute holds
   only this minimum; six keep its medians steady from run to run. *)
let min_reps workload = if workload = "fabric1024" then 6 else 4

(* The highest percentile with at least ten samples beyond it, fixed per
   workload from the batches of [min_reps] repetitions so that every run
   reports the same percentile. *)
let tail_percentile workload =
  let pdus, _, _ = Inputs.shape workload in
  let n = pdus / World.batch_size workload * min_reps workload in
  List.find
    (fun p -> fi n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.; 98.; 95.; 90.; 75.; 50. ]

(* host µs/PDU over the last quarter of batches ÷ the first quarter *)
let drift (r : World.rep) =
  let n = Array.length r.samples in
  let q = n / 4 in
  if q = 0 then 1.
  else
    let sum lo = Array.fold_left ( +. ) 0. (Array.sub r.samples lo q) in
    sum (n - q) /. sum 0

let pdus_per_s (r : World.rep) = fi r.ok /. (fi r.sim_ns /. 1e9)
let bytes_per_word = fi (Sys.word_size / 8)

let live_mb () =
  Gc.full_major ();
  fi (Gc.stat ()).live_words *. bytes_per_word /. 1e6

let peak_heap_mb () =
  fi (Gc.quick_stat ()).top_heap_words *. bytes_per_word /. 1e6

(* Run [f] in a forked child and return its result. The child exits
   without running at_exit handlers, so nothing buffered is flushed
   twice; the parent reaps it before returning. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (r : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result =
        try Marshal.from_channel ic
        with End_of_file -> Error "child exited early"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error e -> failwith ("repetition failed: " ^ e))

(* One repetition with its memory figures, in a fresh child. *)
type measured = {
  rep : World.rep;
  peak_mb : float;  (** heap high-water of the child *)
  retained_mb : float;  (** live heap left once the repetition is dropped *)
  spans : Spans.export;
}

let reps_started = ref 0

let measured (inp : Inputs.t) o =
  incr reps_started;
  let id_base = !reps_started * 100_000_000 in
  in_child (fun () ->
      Spans.reset ~id_base;
      let live0 = live_mb () in
      let rep = World.run inp o in
      let peak_mb = peak_heap_mb () in
      let retained_mb = live_mb () -. live0 in
      { rep; peak_mb; retained_mb; spans = Spans.export () })

(* Host speed on a shared machine drifts by up to 1.7x over minutes, and
   the drift follows the memory system, not the clock rate: a loop of
   arithmetic holds steady while the simulator slows. So every timed
   repetition is bracketed by a fixed reference loop, run in a fresh child
   as the repetition is, and the repetition's host times are scaled to a
   nominal host on which that loop takes its nominal time. The reference
   code is the benchmark's own, so the scale cancels the host's drift and
   nothing the simulator does. *)
type reference = { loop_ns : unit -> int; nominal_ns : int }

module Queue_map = Map.Make (Int)

(* Shaped like the simulator's inner work on a small heap: an ordered
   event queue of boxed entries, a hash table, short-lived buffers. *)
let alloc_loop_ns () =
  in_child @@ fun () ->
  let st = Random.State.make [| 1 |] in
  let h = Hashtbl.create 4096 in
  let q = ref Queue_map.empty and acc = ref 0 in
  let t0 = Selfprof.now_ns () in
  for i = 1 to 100_000 do
    let k = Random.State.int st 1_000_000 in
    q := Queue_map.add k (Bytes.make 48 'x') !q;
    Hashtbl.replace h (k land 4095) i;
    if i land 1 = 0 then begin
      let k', b = Queue_map.min_binding !q in
      q := Queue_map.remove k' !q;
      acc := !acc + Bytes.length b + Hashtbl.find h (k land 4095)
    end
  done;
  ignore (Sys.opaque_identity !acc);
  Selfprof.now_ns () - t0

(* One random cycle through 16 Mi slots (64 MB), far beyond the caches,
   so following it waits on memory at every step. Built once, off the
   OCaml heap: the repetitions forked after it share its pages, and their
   heap figures do not see it. *)
let chase_cycle =
  lazy
    (let n = 16 * 1024 * 1024 in
     let a = Bigarray.(Array1.create int32 c_layout n) in
     for i = 0 to n - 1 do
       a.{i} <- Int32.of_int i
     done;
     let st = Random.State.make [| 2 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let chase_loop_ns () =
  let a = Lazy.force chase_cycle in
  in_child @@ fun () ->
  let x = ref 0 in
  let t0 = Selfprof.now_ns () in
  for _ = 1 to 1_000_000 do
    x := Int32.to_int (Bigarray.Array1.unsafe_get a !x)
  done;
  ignore (Sys.opaque_identity !x);
  Selfprof.now_ns () - t0

(* fabric1024's 700 MB heap makes its collector wait on memory, which the
   small-heap loop does not track: in trial sets of six and eight fabric
   runs, scaling by the chase left pdus_per_s spreading 0.07, by the
   small-heap loop 0.13 and 0.15. *)
let reference_of workload =
  if workload = "fabric1024" then
    { loop_ns = chase_loop_ns; nominal_ns = 200_000_000 }
  else { loop_ns = alloc_loop_ns; nominal_ns = 100_000_000 }

(* [r]'s host times at the nominal host, given the reference loop's mean
   time [loop_ns] around it. *)
let scaled reference ~loop_ns (r : World.rep) =
  let k = fi reference.nominal_ns /. loop_ns in
  let ns t = int_of_float (Float.round (fi t *. k)) in
  {
    r with
    setup_ns = ns r.setup_ns;
    sim_ns = ns r.sim_ns;
    export_ns = ns r.export_ns;
    samples = Array.map (fun x -> x *. k) r.samples;
  }

(* The per-cell oracle of [inp], in a fresh child. Only its simulated
   outputs are read, so it skips the memory figures: on the fabric their
   full collections cost about a second per repetition. *)
let oracle_run inp o =
  in_child (fun () -> World.run inp { o with World.per_cell = true })

(* Verification: a repetition's failed PDUs are those not delivered byte
   for byte; if its cells do not balance or its simulated outputs differ
   from the per-cell oracle, all of its PDUs count as failed. *)
type tally = { mutable attempted : int; mutable failed : int }

let check tally ~(oracle : World.rep) (r : World.rep) =
  let bad = (not r.ledger_ok) || r.outcome <> oracle.outcome in
  tally.attempted <- tally.attempted + r.offered;
  tally.failed <- tally.failed + if bad then r.offered else r.offered - r.ok;
  if r.outcome <> oracle.outcome then begin
    Printf.printf "  simulated outputs differ from the per-cell oracle:\n";
    Printf.printf "    fast: %s\n    cell: %s\n" r.outcome oracle.outcome
  end

(* Call [f 0], [f 1], ... until [seconds] have passed, at least [least]
   times. *)
let repeat ~least ~seconds f =
  let t0 = Selfprof.now_ns () in
  let rec go acc k =
    if k >= least && fi (Selfprof.now_ns () - t0) /. 1e9 >= seconds then
      List.rev acc
    else go (f k :: acc) (k + 1)
  in
  go [] 0

let unit_of name =
  (List.find
     (fun (m : Spec.metric) -> m.name = name)
     (Spec.end_to_end @ Spec.per_layer))
    .unit_

let print_table (inp : Inputs.t) rows =
  let size =
    Printf.sprintf "[%d PDUs, %d cells, %d hosts per repetition]"
      (Array.length inp.sizes) (Inputs.cells inp) (Inputs.hosts inp)
  in
  List.iter
    (fun (name, unit_, v, note) ->
      Printf.printf "  %-45s %14.6g %-6s %s%s\n" name v unit_ size
        (if note = "" then "" else "  " ^ note))
    rows

let print_result ~tally metrics =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      (unit_of name)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && finite)
    tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)

let end_to_end workload ~seed o ~seconds =
  let tally = { attempted = 0; failed = 0 } in
  let reference = reference_of workload in
  let ms =
    repeat ~least:(min_reps workload) ~seconds (fun rep ->
        let inp = Inputs.make workload ~seed ~rep in
        let before = reference.loop_ns () in
        let m = measured inp o in
        let after = reference.loop_ns () in
        let oracle = oracle_run inp o in
        check tally ~oracle oracle;
        check tally ~oracle m.rep;
        (m, fi (before + after) /. 2.))
  in
  let raw = List.map (fun (m, _) -> m.rep) ms in
  let loop_ms = median (List.map snd ms) /. 1e6 in
  let reps =
    List.map (fun (m, loop_ns) -> scaled reference ~loop_ns m.rep) ms
  in
  let ms = List.map fst ms in
  let inp = Inputs.make workload ~seed ~rep:0 in
  let n = List.length reps in
  let med f = median (List.map f reps) in
  let samples =
    Array.concat (List.map (fun (r : World.rep) -> r.samples) reps)
  in
  let p = tail_percentile workload in
  let rates = Array.of_list (List.map pdus_per_s reps) in
  let rows =
    [
      ( "pdus_per_s",
        med pdus_per_s,
        Printf.sprintf
          "median of %d repetitions, range %.6g..%.6g; %.6g as timed" n
          (percentile 0. rates) (percentile 100. rates)
          (median (List.map pdus_per_s raw)) );
      ( "wall_us_per_pdu_p50",
        percentile 50. samples,
        Printf.sprintf "n=%d batches of %d PDUs" (Array.length samples)
          (World.batch_size inp.workload) );
      ( "wall_us_per_pdu_tail",
        percentile p samples,
        Printf.sprintf "p%g, n=%d batches" p (Array.length samples) );
      ( "alloc_words_per_pdu",
        med (fun r -> r.alloc_words /. fi (max 1 r.ok)),
        "" );
      ("setup_s", med (fun r -> fi r.setup_ns /. 1e9), "");
      ( "experiment_s",
        med (fun r -> fi (r.setup_ns + r.sim_ns + r.export_ns) /. 1e9),
        "" );
      ("peak_heap_mb", median (List.map (fun m -> m.peak_mb) ms), "");
      ("retained_mb", median (List.map (fun m -> m.retained_mb) ms), "");
    ]
  in
  Printf.printf
    "perfbench %s seed=%d: %d timed fast-path repetitions, each on its own \
     inputs in a fresh process, checked against a per-cell run, host times \
     scaled to the nominal host\n"
    workload seed n;
  print_table inp
    (List.map (fun (name, v, note) -> (name, unit_of name, v, note)) rows);
  print_table inp
    [
      ( "failed_pdu_ratio",
        "ratio",
        per (fi tally.failed) tally.attempted,
        Printf.sprintf "%d of %d PDUs" tally.failed tally.attempted );
      ("drift_ratio", "ratio", median (List.map drift reps), "");
      ( "reference_ms",
        "ms",
        loop_ms,
        Printf.sprintf
          "reference loop, median; timings above are scaled to %g ms"
          (fi reference.nominal_ns /. 1e6) );
    ];
  print_result ~tally (List.map (fun (name, v, _) -> (name, v)) rows)

(* ------------------------------------------------------------------ *)

(* [Atm.Network.create_topo] alone in a fresh process: host ms and live
   MB, medians of three. *)
let topology_cost (inp : Inputs.t) =
  let topology = World.topology inp in
  let once () =
    let l0 = live_mb () in
    let t0 = Selfprof.now_ns () in
    let net =
      Atm.Network.create_topo (Sim.create ()) ~topology
        Atm.Network.default_config
    in
    let ms = fi (Selfprof.now_ns () - t0) /. 1e6 in
    let mb = live_mb () -. l0 in
    ignore (Sys.opaque_identity net);
    (ms, mb)
  in
  let runs = List.init 3 (fun _ -> in_child once) in
  (median (List.map fst runs), median (List.map snd runs))

(* One per-cell repetition under Selfprof: ns per PDU for each event kind
   of [Spec.percell_kinds], and the share left in the bare root. *)
let selfprof_breakdown (inp : Inputs.t) o =
  in_child @@ fun () ->
  Selfprof.start ();
  let r = World.run inp { o with World.per_cell = true } in
  Selfprof.stop ();
  let is_kind k label =
    if k = "proc" then String.starts_with ~prefix:"proc." label else label = k
  in
  let ns_of k =
    List.fold_left
      (fun acc (label, _, wall, _) ->
        if is_kind k label then acc + wall else acc)
      0
      (Selfprof.kind_summaries ())
  in
  let root =
    List.fold_left
      (fun acc (path, ns) -> if path = [ "engine" ] then acc + ns else acc)
      0 (Selfprof.stacks ())
  in
  ( r,
    List.map
      (fun k -> (Spec.percell_metric k, per (fi (ns_of k)) r.ok))
      Spec.percell_kinds
    @ [
        ( "percell.unattributed_share",
          fi root /. fi (max 1 (Selfprof.elapsed_wall_ns ())) );
      ] )

let per_layer workload ~seed o ~seconds ~spans_out =
  let tally = { attempted = 0; failed = 0 } in
  (* two cycles at least: a fabric cycle is four ~4 s repetitions *)
  let cycles =
    repeat ~least:2 ~seconds (fun rep ->
        let inp = Inputs.make workload ~seed ~rep in
        let cell = oracle_run inp o in
        let plain = (measured inp o).rep in
        let t = measured inp { o with World.traced = true } in
        Spans.absorb t.spans;
        let toggled =
          (measured inp { o with World.observers = not o.World.observers }).rep
        in
        List.iter (check tally ~oracle:cell) [ cell; plain; t.rep ];
        (plain, t.rep, cell, toggled))
  in
  let inp = Inputs.make workload ~seed ~rep:0 in
  let plains = List.map (fun (p, _, _, _) -> p) cycles in
  let traced = List.map (fun (_, t, _, _) -> t) cycles in
  let ratio f = median (List.map f cycles) in
  let sum f = List.fold_left (fun a (r : World.rep) -> a + f r) 0 traced in
  let ok = sum (fun r -> r.ok) in
  let per_pdu f = per (fi (sum f)) ok in
  let per_rep f = per (fi (sum f)) (List.length traced) in
  let fam name =
    per_pdu (fun r -> Option.value ~default:0 (List.assoc_opt name r.families))
  in
  let span_us name = per (fi (Spans.self_ns name) /. 1e3) ok in
  let call_us name =
    per (fi (Spans.active_ns name) /. 1e3) (Spans.calls name)
  in
  let topo_ms, topo_mb = topology_cost inp in
  let sp_rep, percell = selfprof_breakdown inp o in
  (match cycles with
  | (_, _, oracle, _) :: _ -> check tally ~oracle sp_rep
  | [] -> ());
  let events = sum (fun r -> r.events) in
  let cancelled = sum (fun r -> r.cancelled) in
  let metrics =
    [
      ("run.pdus", fi (Array.length inp.sizes));
      ("run.cells", fi (Inputs.cells inp));
      ("run.hosts", fi (Inputs.hosts inp));
      ("drift_ratio", median (List.map drift plains));
      ( "trace.overhead_ratio",
        ratio (fun (p, t, _, _) -> pdus_per_s p /. pdus_per_s t) );
    ]
    @ List.map (fun s -> (Spec.span_metric s, span_us s)) Spec.span_names
    @ [
        ("sim.events_per_pdu", per (fi events) ok);
        ("sim.cancelled_per_pdu", per (fi cancelled) ok);
        ("sim.tombstone_ratio", per (fi cancelled) (events + cancelled));
        ("unet.send_us", call_us "unet.send");
        ( "unet.queue_full_ratio",
          per (fi (sum (fun r -> r.queue_full))) (sum (fun r -> r.send_calls))
        );
        ("unet.rx_dropped", per_rep (fun r -> r.rx_dropped));
        ("ni.doorbells_per_pdu", fam "ni_doorbells_total");
        ("ni.dma_bytes_per_pdu", fam "ni_dma_bytes_total");
        ("ni.copies_per_pdu", fam "ni_copies");
        ("link.cells_sent_per_pdu", per_pdu (fun r -> r.link_cells_sent));
        ("link.drops", per_rep (fun r -> r.link_drops));
        ("switch.cells_routed", per_rep (fun r -> r.switch_routed));
        ("switch.drops", per_rep (fun r -> r.switch_drops));
        ( "switch.queue_peak",
          List.fold_left
            (fun a (r : World.rep) -> Float.max a r.queue_peak)
            0. traced );
        ("uam.xfer_store_us", call_us "uam.xfer_store");
        ("uam.requests_per_pdu", per_pdu (fun r -> r.uam_requests));
        ("uam.retransmissions_per_pdu", per_pdu (fun r -> r.uam_retx));
        ("uam.duplicates", per_rep (fun r -> r.uam_dups));
        ("setup.topology_ms", topo_ms);
        ("setup.topology_mb", topo_mb);
        ("setup.connect_us_per_flow", call_us "unet.connect");
        ("atlas.render_ms", call_us "atlas.section" /. 1e3);
        ("metrics.dump_ms", call_us "metrics.dump" /. 1e3);
        ("pathrec.records_per_pdu", per_pdu (fun r -> r.path_records));
        ( "observers.overhead_ratio",
          ratio (fun (p, _, _, t) ->
              let on, off = if o.World.observers then (p, t) else (t, p) in
              fi on.sim_ns /. fi off.sim_ns) );
        ( "network.train_speedup",
          ratio (fun (p, _, c, _) -> fi c.sim_ns /. fi p.sim_ns) );
        ( "network.event_ratio",
          ratio (fun (p, _, c, _) -> fi c.events /. fi p.events) );
      ]
    @ percell
  in
  Option.iter Spans.write spans_out;
  Printf.printf
    "perfbench %s seed=%d traced: %d cycles of per-cell, plain, traced and \
     observer-toggled repetitions, each cycle on its own inputs\n"
    workload seed (List.length cycles);
  Printf.printf
    "  %d spans kept, %d past the keep limit; percell.* describe the \
     per-cell path Selfprof pins\n"
    (Spans.kept_count ()) (Spans.dropped_count ());
  print_table inp
    (List.map (fun (name, v) -> (name, unit_of name, v, "")) metrics);
  print_result ~tally metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and fault = ref "" and spans_out = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W one of " ^ String.concat ", " Inputs.workloads );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ( "--fault",
        Arg.Set_string fault,
        "SPEC fault applied to every fabric (Engine.Fault syntax)" );
      ( "--spans-out",
        Arg.Set_string spans_out,
        "FILE where the traced run writes its spans" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.mem !workload Inputs.workloads))
    || !seed < 0 || !seconds <= 0.
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let fault =
    if !fault = "" then None
    else
      match Fault.parse !fault with
      | Ok spec -> Some spec
      | Error e ->
          prerr_endline ("--fault: " ^ e);
          exit 2
  in
  let o = { (World.default_opts !workload) with fault } in
  if !trace = 0 then end_to_end !workload ~seed:!seed o ~seconds:!seconds
  else
    per_layer !workload ~seed:!seed o ~seconds:!seconds
      ~spans_out:(if !spans_out = "" then None else Some !spans_out)
