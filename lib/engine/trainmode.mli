(** Global gate for the cell-train fast path.

    [active ()] is true unless an enabled observer needs to see every
    cell: pcap capture without PDU sampling ([Pcapng.enabled () && not
    (Sample.active ())] — under sampling only the sampled PDUs, which run
    per-cell anyway, are captured), the profiler (both clocks), and
    the flight recorder. Trace, Span and Timeseries never pin: their
    output is synthesized from committed plan records. Per-site
    conditions — fault injectors, legacy loss, bounded queues — are
    checked at the individual link/NI instead, so expansion stays local
    to the affected hop.

    When observers do pin, each culprit is named in a
    [trainmode_pinned{observer}] gauge and a one-line stderr warning
    (once per process) — never for {!force_per_cell}, which is an
    explicit request. *)

val active : unit -> bool

val pinned : unit -> string list
(** The observers currently pinning the per-cell path (empty when the
    fast path is available). [force_per_cell] is not listed. *)

val force_per_cell : bool -> unit
(** [force_per_cell true] disables the fast path globally (the --per-cell
    flag), used by the differential tests and benches to compare both
    modes. *)
