include System
module Semidisc = Semidisc
