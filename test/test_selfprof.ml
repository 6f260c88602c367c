(* Tests for the profiler's wall clock, the event-queue introspection
   and the direction-aware bench gates: allocation attribution without
   double counting across nested frames, both clocks fed by one start
   and one push/pop, event-kind windows, queue lifecycle counters and
   histograms, the queue-depth probe, the enginebench snapshot schema,
   and benchdiff's gating rules. The wall root-inclusive-equals-elapsed
   invariant is checked here over fig3 alone, and in test_profile on the
   same fig3/fig5 runs as the virtual one. *)

open Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let with_selfprof f =
  Selfprof.start ();
  Fun.protect
    ~finally:(fun () ->
      Selfprof.stop ();
      Selfprof.clear ())
    f

(* --- wall attribution ------------------------------------------------- *)

(* Exclusive wall times over all stacks must sum to elapsed wall time:
   every transition charges the interval since the previous one to
   exactly one node, and the synthetic [engine] root absorbs event-loop
   and idle time. Checked over a real experiment run, within 1%. *)
let test_wall_folded_sum () =
  match Experiments.Registry.find "fig3" with
  | None -> Alcotest.fail "fig3 experiment missing"
  | Some e ->
      with_selfprof @@ fun () ->
      ignore (e.run ~quick:true);
      Selfprof.stop ();
      let el = Selfprof.elapsed_wall_ns () in
      checkb "wall time elapsed" true (el > 0);
      let stacks = Selfprof.stacks () in
      let sum = List.fold_left (fun acc (_, self) -> acc + self) 0 stacks in
      let drift = abs (sum - el) in
      if float_of_int drift > 0.01 *. float_of_int el then
        Alcotest.failf "folded sum %d vs elapsed %d (drift %d ns > 1%%)" sum el
          drift;
      checki "no empty path" 0
        (List.length (List.filter (fun (path, _) -> path = []) stacks))

(* Allocation deltas are charged at transitions, so a nested frame's
   words never also land in its parent: allocate a known number of words
   in each of two nested frames and check each frame got (about) its own
   share and only that. *)
let test_alloc_no_double_count () =
  (* drain the minor heap first: a minor collection mid-interval adds an
     accounting jump to whichever frame it lands in, which is honest
     attribution but not what this test pins down *)
  Gc.full_major ();
  with_selfprof @@ fun () ->
  let keep = ref [] in
  Selfprof.push "outer";
  keep := Array.make 100_000 0. :: !keep;
  Selfprof.push "inner";
  keep := Array.make 200_000 0. :: !keep;
  Selfprof.pop ();
  Selfprof.pop ();
  ignore (Sys.opaque_identity !keep);
  let alloc = Selfprof.alloc_stacks () in
  let words path =
    match List.assoc_opt path alloc with Some w -> w | None -> 0
  in
  let outer = words [ "engine"; "outer" ]
  and inner = words [ "engine"; "outer"; "inner" ] in
  if not (outer >= 100_000 && outer < 160_000) then
    Alcotest.failf "outer charged %d words, expected ~100k" outer;
  if not (inner >= 200_000 && inner < 260_000) then
    Alcotest.failf "inner charged %d words, expected ~200k" inner

(* One start, one push/pop, two clocks: a frame shows up in the
   virtual-time stacks (with its charge) and in the wall-time tree (as a
   node), from a single instrumentation site. *)
let test_compose_with_profile () =
  with_selfprof @@ fun () ->
  Selfprof.push "shared";
  Selfprof.charge 11;
  Selfprof.pop ();
  checkb "virtual clock saw the frame" true
    (List.assoc_opt [ "host0"; "shared" ] (Selfprof.virtual_stacks ())
    = Some 11);
  checkb "wall clock saw the same frame" true
    (List.mem_assoc [ "engine"; "shared" ] (Selfprof.stacks ()))

(* Event windows: a labeled event runs under its ev:<label> kind node,
   frames pushed inside nest under it, and a frame left open by the
   thunk is rewound (counted) instead of absorbing later events. *)
let test_event_windows () =
  with_selfprof @@ fun () ->
  let sim = Sim.create () in
  ignore
    (Sim.schedule ~label:"widget" sim ~delay:0 (fun () ->
         Selfprof.push "work";
         Selfprof.pop ()));
  ignore
    (Sim.schedule ~label:"leaky" sim ~delay:1 (fun () ->
         Selfprof.push "open"));
  Sim.run sim;
  let paths = List.map fst (Selfprof.stacks ()) in
  checkb "kind node created" true (List.mem [ "engine"; "ev:widget" ] paths);
  checkb "inner frame nests under the kind" true
    (List.exists (fun p -> p = [ "engine"; "ev:widget"; "work" ]) paths
    || not (List.mem [ "engine"; "work" ] paths));
  checki "dangling frame rewound and counted" 1 (Selfprof.dangling ());
  let kinds = List.map (fun (l, _, _, _) -> l) (Selfprof.kind_summaries ()) in
  checkb "per-kind summaries accumulated" true
    (List.mem "widget" kinds && List.mem "leaky" kinds)

(* --- queue introspection ---------------------------------------------- *)

let test_queue_counters () =
  let fired0 = Sim.events_fired () and cancelled0 = Sim.events_cancelled () in
  let sim = Sim.create () in
  let h = Sim.schedule sim ~delay:5 (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:1 (fun () -> ()));
  ignore (Sim.schedule sim ~delay:2 (fun () -> ()));
  Sim.cancel h;
  Sim.cancel h;
  (* double cancel counts once *)
  Sim.run sim;
  checki "fired" 2 (Sim.events_fired () - fired0);
  checki "cancelled" 1 (Sim.events_cancelled () - cancelled0);
  checkb "tombstone ratio in [0,1]" true
    (Sim.tombstone_ratio () >= 0. && Sim.tombstone_ratio () <= 1.)

let test_queue_histograms () =
  with_selfprof @@ fun () ->
  let sim = Sim.create () in
  (* three events at one timestamp -> a batch of 3; a cancelled event
     ahead of them -> at least one pop skips a tombstone *)
  let h = Sim.schedule sim ~delay:1 (fun () -> ()) in
  Sim.cancel h;
  for _ = 1 to 3 do
    ignore (Sim.schedule sim ~delay:2 (fun () -> ()))
  done;
  Sim.run sim;
  checkb "pop-cost histogram populated" true (Selfprof.pop_cost_hist () <> []);
  checkb "some pop paid for the tombstone" true (Selfprof.pop_cost_mean () > 0.);
  checkb "batch of 3 observed" true
    (List.exists (fun (n, _) -> n >= 3) (Selfprof.batch_size_hist ()));
  checkb "mean batch >= 1" true (Selfprof.batch_size_mean () >= 1.)

let test_queue_depth_probe () =
  Timeseries.clear ();
  Timeseries.start ();
  Fun.protect ~finally:(fun () ->
      Timeseries.stop ();
      Timeseries.clear ())
  @@ fun () ->
  Timeseries.set_interval (Sim.us 10);
  let sim = Sim.create () in
  for i = 1 to 40 do
    ignore (Sim.schedule sim ~delay:(Sim.us (5 * i)) (fun () -> ()))
  done;
  Sim.run sim;
  match
    List.find_opt
      (fun (s : Timeseries.series) -> s.s_name = "sim_queue_depth")
      (Timeseries.series ())
  with
  | None -> Alcotest.fail "sim_queue_depth probe never sampled"
  | Some s ->
      checkb "at least 10 depth samples over 200 us" true
        (List.length s.s_points >= 10);
      checkb "depth decreases as the queue drains" true
        (match (s.s_points, List.rev s.s_points) with
        | (_, first) :: _, (_, last) :: _ -> last <= first
        | _ -> false)

(* --- enginebench snapshot schema -------------------------------------- *)

let test_enginebench_schema () =
  let samples = Experiments.Enginebench.measure ~quick:true in
  checki "four workloads" 4 (List.length samples);
  List.iter
    (fun (s : Experiments.Enginebench.sample) ->
      checkb (s.s_workload ^ " fired events") true (s.s_events > 0);
      checkb (s.s_workload ^ " took wall time") true (s.s_wall_ns > 0);
      checkb (s.s_workload ^ " allocated") true (s.s_alloc_words > 0.))
    samples;
  let j = Experiments.Enginebench.snapshot_json ~quick:true samples in
  checkb "named" true (Json.member "name" j = Some (Json.Str "engine-throughput"));
  List.iter
    (fun (s : Experiments.Enginebench.sample) ->
      List.iter
        (fun suffix ->
          let key = s.s_workload ^ suffix in
          checkb (key ^ " present") true
            (Option.is_some (Benchgate.numeric key j)))
        [
          "_events_fired";
          "_events_per_pdu";
          "_mb_per_sec";
          "_events_per_sec_wall";
          "_us_per_event";
          "_alloc_words_per_event";
          "_latency_p50_ns";
          "_latency_p99_ns";
          "_latency_p999_ns";
        ])
    samples;
  checki "one gate per metric" 36 (List.length (Benchgate.gates_of_json j))

(* --- direction-aware gating ------------------------------------------- *)

let snap gates values =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Num v)) values
    @ [ ("gates", Benchgate.gates_json gates) ])

let test_gate_directions () =
  let open Benchgate in
  let lower = { g_tolerance = 0.2; g_direction = Lower_is_better } in
  let higher = { g_tolerance = 0.2; g_direction = Higher_is_better } in
  let both = { g_tolerance = 0.2; g_direction = Both } in
  checkb "lower: regression flagged" true
    (violates lower ~baseline:100. ~current:130.);
  checkb "lower: improvement passes however large" false
    (violates lower ~baseline:100. ~current:10.);
  checkb "higher: regression flagged" true
    (violates higher ~baseline:100. ~current:70.);
  checkb "higher: improvement passes however large" false
    (violates higher ~baseline:100. ~current:1000.);
  checkb "both: flagged either way" true
    (violates both ~baseline:100. ~current:130.
    && violates both ~baseline:100. ~current:70.);
  checkb "within tolerance passes" false
    (violates lower ~baseline:100. ~current:110.)

let test_diff_gated () =
  let gates =
    [
      ("us_per_event", Benchgate.{ g_tolerance = 0.5; g_direction = Lower_is_better });
      ("events_per_sec", Benchgate.{ g_tolerance = 0.5; g_direction = Higher_is_better });
    ]
  in
  let baseline = snap gates [ ("us_per_event", 2.0); ("events_per_sec", 1e6) ] in
  let improved = snap gates [ ("us_per_event", 0.5); ("events_per_sec", 4e6) ] in
  let regressed = snap gates [ ("us_per_event", 4.0); ("events_per_sec", 1e6) ] in
  checkb "improvement produces no flags" true
    (Benchgate.diff ~tolerance:0.1 baseline improved = []);
  checkb "regression is flagged" true
    (Benchgate.diff ~tolerance:0.1 baseline regressed <> []);
  (* the baseline's gates govern even if the current snapshot carries
     different (e.g. loosened) gates *)
  let loosened =
    snap
      [ ("us_per_event", Benchgate.{ g_tolerance = 99.; g_direction = Both }) ]
      [ ("us_per_event", 4.0); ("events_per_sec", 1e6) ]
  in
  checkb "baseline's copy of the gates wins" true
    (Benchgate.diff ~tolerance:0.1 baseline loosened <> [])

let test_diff_missing_metric () =
  let gates =
    [ ("us_per_event", Benchgate.{ g_tolerance = 0.5; g_direction = Lower_is_better }) ]
  in
  let baseline = snap gates [ ("us_per_event", 2.0) ] in
  let missing = snap gates [] in
  checkb "gated metric missing from current is flagged" true
    (Benchgate.diff ~tolerance:0.1 baseline missing <> [])

let () =
  Alcotest.run "selfprof"
    [
      ( "wall",
        [
          Alcotest.test_case "folded sum = elapsed (fig3)" `Quick
            test_wall_folded_sum;
          Alcotest.test_case "alloc not double-counted" `Quick
            test_alloc_no_double_count;
          Alcotest.test_case "composes with --profile" `Quick
            test_compose_with_profile;
          Alcotest.test_case "event kind windows" `Quick test_event_windows;
        ] );
      ( "queue",
        [
          Alcotest.test_case "lifecycle counters" `Quick test_queue_counters;
          Alcotest.test_case "pop-cost and batch histograms" `Quick
            test_queue_histograms;
          Alcotest.test_case "depth probe cadence" `Quick test_queue_depth_probe;
        ] );
      ( "bench",
        [
          Alcotest.test_case "enginebench snapshot schema" `Quick
            test_enginebench_schema;
          Alcotest.test_case "gate directions" `Quick test_gate_directions;
          Alcotest.test_case "diff obeys baseline gates" `Quick test_diff_gated;
          Alcotest.test_case "missing gated metric flagged" `Quick
            test_diff_missing_metric;
        ] );
    ]
