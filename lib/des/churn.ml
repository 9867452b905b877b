(** Membership churn, one vocabulary for every simulator: {!Des_sim} and
    {!Pdes_sim} re-export these types, so a {!Churn_trace} drives either
    one. *)

open Lesslog_id

type churn_action = Join of Pid.t | Leave of Pid.t | Fail of Pid.t
type churn_event = { at : float; action : churn_action }
