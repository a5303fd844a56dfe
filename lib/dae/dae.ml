include System
module Semidisc = Semidisc
module Phase = Phase
module Periodic = Periodic
