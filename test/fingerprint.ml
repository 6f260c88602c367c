(* Everything observable about the collected spans except their
   allocation-order ids, which differ between two runs in the same
   process: one line per span, every mark (including [Dropped]) with its
   instant or "-". *)

open Engine

let all_marks =
  Span.
    [
      Doorbell;
      Nic_tx;
      Injected;
      Link_tx;
      Switch_in;
      Switch_out;
      Rx_cell;
      Demuxed;
      Popped;
      Dispatched;
      Dropped;
    ]

let spans () =
  Span.spans ()
  |> List.map (fun (s : Span.span) ->
         Printf.sprintf "%s host=%d minted=%d %s" s.Span.name s.Span.host
           s.Span.minted
           (String.concat ","
              (List.map
                 (fun m ->
                   match Span.mark_time s m with
                   | Some t -> Printf.sprintf "%s=%d" (Span.mark_name m) t
                   | None -> Span.mark_name m ^ "=-")
                 all_marks)))
  |> String.concat "\n"
