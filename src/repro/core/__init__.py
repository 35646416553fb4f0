"""The paper's primary contribution: the sublist algorithm, operators,
pack scheduling, tuning, and the public dispatch API."""

from .list_scan import ALGORITHMS, list_rank, list_scan
from .operators import (
    AFFINE,
    AND,
    BUILTIN_OPERATORS,
    MAX,
    MIN,
    OR,
    PROD,
    SUM,
    XOR,
    Operator,
    get_operator,
)
from .schedule import (
    ScheduleIterator,
    every_step_schedule,
    integer_gaps,
    numeric_optimal_schedule,
    optimal_schedule,
    slope_condition_residuals,
    uniform_schedule,
)
from .early_reconnect import early_reconnect_list_scan
from .forest import (
    forest_list_scan,
    forest_tails,
    serial_forest_scan,
    wyllie_forest_scan,
)
from .stats import ScanStats
from .sublist import SublistConfig, sublist_list_rank, sublist_list_scan
from .tuning import (
    PolylogFit,
    SERIAL_CUTOFF,
    WYLLIE_CUTOFF,
    default_parameters,
    fit_polylog,
    tune_grid,
    tuned_parameters,
)
from .segmented import (
    pack_segmented_values,
    segmented_list_scan,
    segmented_operator,
)
