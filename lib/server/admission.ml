open Subql_relational

type policy = { mem_budget_rows : float; queue_cap : int }

let unlimited = { mem_budget_rows = infinity; queue_cap = 4096 }

type rejection = { diag : Diag.t; retry_after : float option }

let code_over_budget = "ADM001"

let code_queue_full = "ADM002"

let code_shutdown = "ADM003"

let check_budget policy ~stats ~config ~label plan =
  (* Spill-aware: rows the executor would push through temp heap files
     are disk, not resident memory — only the resident component is
     gated.  With no spill budget configured this is exactly the old
     [memory_height] gate. *)
  let height, cert = Subql.Cost.memory_heights stats ~config plan in
  (* Gate on the smaller of the point estimate and the certified sound
     bound (when finite): a proven-small certificate admits plans the
     point estimate over-rejects — e.g. a distinct-count product proving
     few groups — while an infinite certificate (a table with no
     statistics) falls back to the estimate alone.  Taking the min means
     the certificate can only ever admit {e more}, never less, so a
     serving steady state never loses throughput to certification. *)
  let effective =
    if Float.is_finite cert.Subql.Cost.bound then
      Float.min height cert.Subql.Cost.bound
    else height
  in
  if effective <= policy.mem_budget_rows then Ok effective
  else
    Error
      {
        diag =
          Diag.makef ~subject:label Diag.Error ~code:code_over_budget
            "plan's predicted peak of %.0f resident rows (certified bound %s) exceeds \
             the %.0f-row memory budget; dominant breaker is %s at %s holding %s \
             certified rows; not executed"
            height
            (Subql.Cost.Interval.fmt_bound cert.Subql.Cost.bound)
            policy.mem_budget_rows cert.Subql.Cost.argmax_op
            (Diag.path_to_string cert.Subql.Cost.argmax_path)
            (Subql.Cost.Interval.fmt_bound cert.Subql.Cost.argmax_rows);
        (* The budget is a property of the plan, not of the moment:
           retrying the same query can only fail again. *)
        retry_after = None;
      }

let check_queue policy ~depth ~retry_after ~label =
  if depth < policy.queue_cap then Ok ()
  else
    Error
      {
        diag =
          Diag.makef ~subject:label Diag.Error ~code:code_queue_full
            "request queue is at its cap of %d; shed — retry in %.3fs"
            policy.queue_cap retry_after;
        retry_after = Some retry_after;
      }

let shutdown_rejection ~label =
  {
    diag =
      Diag.error ~subject:label ~code:code_shutdown
        "server is shut down; no further submissions";
    retry_after = None;
  }
