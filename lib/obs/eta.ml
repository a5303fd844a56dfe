(* Exponentially-smoothed progress rate and remaining-time estimate,
   behind the ETA of the NDJSON progress stream.  The (time, completed) pair
   only advances when progress is actually made, so idle stretches
   lengthen the next rate sample instead of being silently dropped —
   the estimate never turns optimistic from stalls. *)
type t = {
  total : float;
  alpha : float;
  mutable last_t : float;  (* nan until the first update *)
  mutable last_done : float;
  mutable rate : float;  (* smoothed units per second *)
  mutable have_rate : bool;
}

let create ?(alpha = 0.3) ~total () =
  if (not (Float.is_finite total)) || total <= 0. then
    invalid_arg "Wampde_obs.Eta.create: total must be finite and positive";
  if (not (Float.is_finite alpha)) || alpha <= 0. || alpha > 1. then
    invalid_arg "Wampde_obs.Eta.create: alpha must be in (0, 1]";
  { total; alpha; last_t = nan; last_done = 0.; rate = 0.; have_rate = false }

let update e ~now ~completed =
  let completed = Float.max e.last_done (Float.min e.total completed) in
  if Float.is_nan e.last_t then begin
    e.last_t <- now;
    e.last_done <- completed
  end
  else begin
    let dt = now -. e.last_t and dc = completed -. e.last_done in
    if dc > 0. then
      if dt > 0. then begin
        let inst = dc /. dt in
        e.rate <-
          (if e.have_rate then ((1. -. e.alpha) *. e.rate) +. (e.alpha *. inst) else inst);
        e.have_rate <- true;
        e.last_t <- now;
        e.last_done <- completed
      end
      else
        (* progress below clock resolution: bank it, keep the old
           timestamp so the elapsed time is not undercounted *)
        e.last_done <- completed
  end

let rate e = if e.have_rate then e.rate else 0.
let fraction e = Float.max 0. (Float.min 1. (e.last_done /. e.total))

let eta_s e =
  let remaining = Float.max 0. (e.total -. e.last_done) in
  if remaining = 0. then 0.
  else if e.have_rate && e.rate > 0. then remaining /. e.rate
  else Float.infinity
