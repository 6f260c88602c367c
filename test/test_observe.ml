(* Fast-path-compatible telemetry (DESIGN.md §15): the deterministic PDU
   sampler, the latency sketch, and the guarantee that train-granular
   observers neither pin the per-cell slow path nor change what they
   report. *)

open Engine

let checkb name expected got = Alcotest.(check bool) name expected got
let checki name expected got = Alcotest.(check int) name expected got

(* --- deterministic 1-in-N sampling ------------------------------------ *)

let sampled_set ~n ~seed count =
  List.filter (Sample.decide ~seed ~n) (List.init count Fun.id)

let sampler_pure () =
  (* membership is a pure function of (seed, n, index) *)
  Alcotest.(check (list int))
    "same seed, same set"
    (sampled_set ~n:64 ~seed:0x5eed 4096)
    (sampled_set ~n:64 ~seed:0x5eed 4096);
  checkb "different seeds give different sets" false
    (sampled_set ~n:64 ~seed:1 4096 = sampled_set ~n:64 ~seed:2 4096);
  (* density: 4096 indices at 1-in-64 should select about 64 *)
  let k = List.length (sampled_set ~n:64 ~seed:0x5eed 4096) in
  checkb (Printf.sprintf "1-in-64 density sane (%d of 4096)" k) true
    (k >= 24 && k <= 160)

let sampler_stream () =
  Sample.configure ~n:16 ~seed:42;
  let want = List.init 1000 (Sample.decide ~seed:42 ~n:16) in
  let got = List.init 1000 (fun _ -> Sample.next_pdu ()) in
  Alcotest.(check (list bool)) "next_pdu = decide over the index stream" want
    got;
  checki "offered counts every PDU" 1000 (Sample.offered ());
  checki "sampled counts the hits"
    (List.length (List.filter Fun.id want))
    (Sample.sampled ());
  (* reset restarts the index: the stream replays identically *)
  Sample.reset ();
  let again = List.init 1000 (fun _ -> Sample.next_pdu ()) in
  Alcotest.(check (list bool)) "reset replays the same set" want again;
  Sample.configure ~n:0 ~seed:0

(* The sampled set must be the same whether the unsampled PDUs ride
   trains or the forced per-cell path: the NI offers every descriptor to
   the sampler before choosing a path, so the index stream is
   mode-independent. *)
let sampler_cross_mode () =
  let run forced =
    Metrics.reset ();
    Trainmode.force_per_cell forced;
    Sample.configure ~n:8 ~seed:7;
    (try
       ignore
         (Experiments.Common.raw_bandwidth ~count:40 ~size:5056 () : float)
     with e ->
       Trainmode.force_per_cell false;
       raise e);
    Trainmode.force_per_cell false;
    let r = (Sample.offered (), Sample.sampled ()) in
    Sample.configure ~n:0 ~seed:0;
    r
  in
  let t_off, t_hit = run false in
  let p_off, p_hit = run true in
  checki "same PDUs offered across modes" t_off p_off;
  checki "same PDUs sampled across modes" t_hit p_hit;
  checki "every descriptor offered exactly once" 40 t_off;
  checkb (Printf.sprintf "sampling engaged (%d of %d)" t_hit t_off) true
    (t_hit > 0)

(* --- latency sketch --------------------------------------------------- *)

let sketch_bounds () =
  let s = Metrics.Sketch.create () in
  let n = 20_000 in
  (* a deterministic right-skewed distribution spanning ~7 decades *)
  let vals = Array.init n (fun i -> exp (float_of_int i /. 1234.)) in
  Array.iter (Metrics.Sketch.observe s) vals;
  let sorted = Array.copy vals in
  Array.sort compare sorted;
  let exact q =
    sorted.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
  in
  checki "count is exact" n (Metrics.Sketch.count s);
  Alcotest.(check (float 1e-6)) "max is exact" sorted.(n - 1)
    (Metrics.Sketch.max s);
  let tol = (Metrics.Sketch.alpha s *. 1.1) +. 1e-9 in
  List.iter
    (fun q ->
      let want = exact q and got = Metrics.Sketch.quantile s q in
      checkb
        (Printf.sprintf "p%g within %.1f%% (want %g got %g)" (q *. 100.)
           (tol *. 100.) want got)
        true
        (Float.abs (got -. want) <= tol *. want))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Metrics.Sketch.clear s;
  checki "clear empties" 0 (Metrics.Sketch.count s);
  checkb "quantile of empty sketch raises" true
    (try
       ignore (Metrics.Sketch.quantile s 0.5 : float);
       false
     with _ -> true)

(* --- registry ----------------------------------------------------------- *)

(* A large family: samples are found by label set whatever the label
   order, dumps list them in registration order, and reset zeroes them
   without forgetting any. *)
let registry_large_family () =
  Metrics.reset ();
  let name = "observe_registry_probe_total" in
  let n = 5_000 in
  let labels i = [ ("slot", string_of_int i); ("kind", "probe") ] in
  let cs =
    Array.init n (fun i -> Metrics.counter ~help:"probe" name (labels i))
  in
  checkb "re-registering returns the same counter" true
    (Array.for_all Fun.id
       (Array.init n (fun i ->
            Metrics.counter name (List.rev (labels i)) == cs.(i))));
  Metrics.Counter.add cs.(n - 1) 7;
  Alcotest.(check (option int)) "counter_value finds the last sample" (Some 7)
    (Metrics.counter_value name (labels (n - 1)));
  let slots () =
    Metrics.to_prometheus_string ()
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if String.starts_with ~prefix:(name ^ "{") line then
             Scanf.sscanf line "%_s@{kind=\"probe\",slot=\"%d\"} %_d"
               Option.some
           else None)
  in
  Alcotest.(check (list int)) "dump keeps registration order"
    (List.init n Fun.id) (slots ());
  Metrics.reset ();
  Alcotest.(check (option int)) "reset zeroes" (Some 0)
    (Metrics.counter_value name (labels (n - 1)));
  checki "reset keeps every sample" n (List.length (slots ()));
  checkb "handles survive reset" true
    (Metrics.counter name (labels 0) == cs.(0))

(* --- span milestones: train-granular = per-cell ----------------------- *)

(* With sampling on, sampled PDUs take the per-cell path (real marks) and
   the rest ride trains (marks synthesized from plan records): the whole
   span dump must still be byte-identical to the forced per-cell run,
   where every mark is stamped by a real event. *)
let spans_identical_across_modes () =
  let run forced =
    Metrics.reset ();
    Span.clear ();
    Span.start ();
    Trainmode.force_per_cell forced;
    Sample.configure ~n:3 ~seed:0x5eed;
    (try ignore (Experiments.Common.raw_rtt ~iters:20 ~size:1024 () : float)
     with e ->
       Trainmode.force_per_cell false;
       raise e);
    Trainmode.force_per_cell false;
    Sample.configure ~n:0 ~seed:0;
    let fp = Fingerprint.spans () in
    Span.stop ();
    Span.clear ();
    fp
  in
  let train = run false in
  let percell = run true in
  checkb "spans were collected" true (String.length train > 0);
  Alcotest.(check string) "span milestones train = per-cell" percell train

(* --- observers keep the fast path engaged ----------------------------- *)

let observers_stay_fast () =
  let events f =
    Metrics.reset ();
    let fired0 = Sim.events_fired () in
    f ();
    Sim.events_fired () - fired0
  in
  let workload () =
    ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float)
  in
  let base = events workload in
  Trace.start ();
  Timeseries.start ();
  Span.start ();
  let observed =
    try events workload
    with e ->
      Trace.stop ();
      Timeseries.stop ();
      Span.stop ();
      raise e
  in
  Alcotest.(check (list string))
    "train-granular observers pin nothing" [] (Trainmode.pinned ());
  Trace.stop ();
  Trace.clear ();
  Timeseries.stop ();
  Span.stop ();
  Span.clear ();
  checkb
    (Printf.sprintf "trace+timeseries+spans stay within 2x (%d vs %d events)"
       observed base)
    true
    (observed <= 2 * base)

(* --- timeseries ring-drop counter ------------------------------------- *)

let timeseries_drop_counter () =
  Metrics.reset ();
  Timeseries.clear ();
  Timeseries.set_interval 10;
  Timeseries.start ();
  Timeseries.register "obs_test_probe" [] (fun () -> 1.);
  (* one sample per boundary; 9000 boundaries into an 8192-point ring *)
  for i = 1 to 9000 do
    Timeseries.on_event (i * 10)
  done;
  Timeseries.stop ();
  let dropped =
    Metrics.counter_value "timeseries_points_dropped_total"
      [ ("series", "obs_test_probe") ]
  in
  checki "overwritten points counted" (9000 - 8192)
    (Option.value ~default:0 dropped);
  (match Timeseries.series () with
  | [ s ] -> checki "series drop count matches" (9000 - 8192) s.s_dropped
  | l -> Alcotest.failf "expected one series, got %d" (List.length l));
  Timeseries.clear ();
  Timeseries.set_interval 10_000

(* --- pinning observers are named -------------------------------------- *)

let pinned_gauge () =
  Metrics.reset ();
  Pcapng.start ();
  checkb "pcap without sampling pins the slow path" false (Trainmode.active ());
  Alcotest.(check (list string)) "pcap named as the culprit" [ "pcap" ]
    (Trainmode.pinned ());
  let dump = Metrics.to_prometheus_string () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  checkb "trainmode_pinned{observer=pcap} gauge set" true
    (contains dump "trainmode_pinned" && contains dump "observer=\"pcap\"");
  (* under sampling only the sampled PDUs, which run per-cell anyway,
     feed the capture *)
  Sample.configure ~n:3 ~seed:0x5eed;
  checkb "pcap under sampling, fast path re-engages" true (Trainmode.active ());
  Alcotest.(check (list string)) "nothing pins" [] (Trainmode.pinned ());
  Sample.configure ~n:0 ~seed:0;
  Pcapng.stop ();
  Pcapng.clear ();
  (* one profiler, so one culprit for both clocks *)
  Selfprof.start ();
  checkb "profiler pins the slow path" false (Trainmode.active ());
  Alcotest.(check (list string)) "selfprof named as the only culprit"
    [ "selfprof" ] (Trainmode.pinned ());
  checkb "trainmode_pinned{observer=selfprof} gauge set" true
    (contains (Metrics.to_prometheus_string ()) "observer=\"selfprof\"");
  Selfprof.stop ();
  Selfprof.clear ()

(* The gate runs per multi-cell tx descriptor and per received train, so
   the unpinned answer must not allocate. *)
let active_allocates_nothing () =
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Trainmode.active () : bool)
  done;
  let words = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "10k unpinned calls allocate %.0f words" words) true
    (words < 100.)

let () =
  Alcotest.run "observe"
    [
      ( "sampler",
        [
          Alcotest.test_case "pure membership" `Quick sampler_pure;
          Alcotest.test_case "stream matches decide" `Quick sampler_stream;
          Alcotest.test_case "mode-independent" `Slow sampler_cross_mode;
        ] );
      ( "sketch",
        [ Alcotest.test_case "quantile error bounds" `Quick sketch_bounds ] );
      ( "registry",
        [
          Alcotest.test_case "large family: identity, order, reset" `Quick
            registry_large_family;
        ] );
      ( "spans",
        [
          Alcotest.test_case "train = per-cell with sampling" `Slow
            spans_identical_across_modes;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "observers do not pin" `Slow observers_stay_fast;
          Alcotest.test_case "ring drops counted" `Quick
            timeseries_drop_counter;
          Alcotest.test_case "pinning observer named" `Quick pinned_gauge;
          Alcotest.test_case "unpinned gate allocates nothing" `Quick
            active_allocates_nothing;
        ] );
    ]
