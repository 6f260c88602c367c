(* The benchmark's metric catalogue: every name it prints, with its unit.
   BENCHMARK.json at the repository root lists the same names; run.py
   refuses a run whose metrics differ from it, and the tests check both
   lists. *)

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

(* Printed with --trace 0: what a user running an experiment sees. *)
let end_to_end =
  [
    m "pdus_per_s" "PDU/s";
    m "wall_us_per_pdu_p50" "us";
    m "wall_us_per_pdu_tail" "us";
    m "alloc_words_per_pdu" "words";
    m "setup_s" "s";
    m "experiment_s" "s";
    m "peak_heap_mb" "MB";
    m "retained_mb" "MB";
  ]

(* Benchmark spans, reported as self time per delivered PDU. *)
let span_names =
  [
    "cluster.create";
    "unet.connect";
    "unet.send";
    "unet.provide_free_buffer";
    "uam.xfer_store";
    "sim.run";
    "atlas.section";
    "metrics.dump";
  ]

(* Selfprof event kinds of the per-cell breakdown; "proc" sums every
   proc.* kind. *)
let percell_kinds =
  [
    "link.tx_cell";
    "link.deliver";
    "switch.transit";
    "sync.job_done";
    "proc";
    "ni.retry";
    "unet.recv_deadline";
  ]

let span_metric s = "span." ^ s ^ ".self_us_per_pdu"
let percell_metric k = "percell." ^ k ^ ".ns_per_pdu"

(* Printed with --trace 1. *)
let per_layer =
  [
    m "run.pdus" "count";
    m "run.cells" "count";
    m "run.hosts" "count";
    m "drift_ratio" "ratio";
    m "trace.overhead_ratio" "ratio";
  ]
  @ List.map (fun s -> m (span_metric s) "us") span_names
  @ [
      m "sim.events_per_pdu" "events";
      m "sim.cancelled_per_pdu" "events";
      m "sim.tombstone_ratio" "ratio";
      m "unet.send_us" "us";
      m "unet.queue_full_ratio" "ratio";
      m "unet.rx_dropped" "count";
      m "ni.doorbells_per_pdu" "count";
      m "ni.dma_bytes_per_pdu" "bytes";
      m "ni.copies_per_pdu" "count";
      m "link.cells_sent_per_pdu" "cells";
      m "link.drops" "count";
      m "switch.cells_routed" "count";
      m "switch.drops" "count";
      m "switch.queue_peak" "cells";
      m "uam.xfer_store_us" "us";
      m "uam.requests_per_pdu" "count";
      m "uam.retransmissions_per_pdu" "count";
      m "uam.duplicates" "count";
      m "setup.topology_ms" "ms";
      m "setup.topology_mb" "MB";
      m "setup.connect_us_per_flow" "us";
      m "atlas.render_ms" "ms";
      m "metrics.dump_ms" "ms";
      m "pathrec.records_per_pdu" "count";
      m "observers.overhead_ratio" "ratio";
      m "network.train_speedup" "ratio";
      m "network.event_ratio" "ratio";
    ]
  @ List.map (fun k -> m (percell_metric k) "ns") percell_kinds
  @ [ m "percell.unattributed_share" "ratio" ]

let name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with '_' | '.' | '-' -> false | c -> name_char c)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> name_char c || c = '/' || c = '%') s
